#![warn(missing_docs)]

//! Versioned binary checkpoints of warmed machine state, plus the disk
//! blob cache the bench harness persists memoized results into.
//!
//! A checkpoint file is a small container format:
//!
//! ```text
//! magic     "NWOC"                      4 bytes
//! version   format version              u16 LE
//! salt      code-version salt           u64 LE
//! count     number of sections         u32 LE
//! section*  name-len u16, name bytes,
//!           payload-len u64, crc32 u32,
//!           payload bytes
//! ```
//!
//! Every section carries its own CRC32 so corruption is localized and
//! detected *before* any state is mutated; [`CheckpointReader::from_bytes`]
//! verifies every checksum up front. The `salt` ties a file to the code
//! revision that wrote it — [`SimConfig::fingerprint`]-style Debug-format
//! hashes are stable within a build but not across versions, so a salt
//! mismatch means "regenerate", never "trust".
//!
//! Subsystems participate by implementing [`Checkpointable`]: `save`
//! serializes into a [`SectionWriter`], `restore` reads the same fields
//! back from a [`SectionReader`] in the same order. Restore is strictly
//! validated: every decode failure surfaces as a typed [`CkptError`],
//! never as garbage state or a panic.
//!
//! [`CacheDir`] is the storage layer underneath both `sim --ckpt-out`
//! files and the harness's `NWO_CACHE_DIR` disk memo cache (see
//! `docs/checkpointing.md`).
//!
//! [`SimConfig::fingerprint`]: https://docs.rs/nwo-sim

use std::borrow::Cow;
use std::fmt;
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// File magic: the first four bytes of every checkpoint.
pub const MAGIC: [u8; 4] = *b"NWOC";

/// Container format version. Bump on incompatible *container* layout
/// changes (section framing, header fields).
pub const FORMAT_VERSION: u16 = 1;

/// Section-payload layout revision. Bump whenever any `Checkpointable`
/// impl changes its field order or encoding; it feeds [`code_salt`] so
/// stale files are rejected instead of misparsed.
const LAYOUT_REV: u64 = 1;

/// The code-version salt baked into every checkpoint written by this
/// build: a hash of the crate version and the payload-layout revision.
/// Files carrying a different salt are rejected with
/// [`CkptError::StaleSalt`].
pub fn code_salt() -> u64 {
    let tag = concat!(env!("CARGO_PKG_VERSION"), "+layout=");
    fnv1a(tag.as_bytes()) ^ LAYOUT_REV.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// FNV-1a over `bytes` — the same cheap stable hash the simulator uses
/// for config fingerprints, exposed here so every layer keys its cache
/// entries identically.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

// ----------------------------------------------------------------------
// Errors
// ----------------------------------------------------------------------

/// Why a checkpoint could not be read. Every variant is a hard reject:
/// no partial restore ever survives an error.
#[derive(Debug)]
pub enum CkptError {
    /// The file does not start with [`MAGIC`] — not a checkpoint.
    BadMagic,
    /// The container format version is not ours.
    ForeignVersion {
        /// Version found in the file.
        found: u16,
        /// Version this build writes.
        expected: u16,
    },
    /// The file was written by a different code revision.
    StaleSalt {
        /// Salt found in the file.
        found: u64,
        /// Salt this build writes.
        expected: u64,
    },
    /// The file ends before the declared structure does.
    Truncated {
        /// What was being read when the bytes ran out.
        context: &'static str,
    },
    /// A section's payload does not match its stored CRC32.
    CrcMismatch {
        /// Name of the corrupted section.
        section: String,
    },
    /// A section decoded to something structurally impossible.
    Malformed(String),
    /// A required section is absent.
    MissingSection(String),
    /// The checkpoint belongs to a different program or machine shape.
    Mismatch {
        /// Which identity field disagreed.
        what: &'static str,
        /// Value found in the file.
        found: u64,
        /// Value the restoring machine expects.
        expected: u64,
    },
    /// Underlying filesystem error.
    Io(io::Error),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CkptError::ForeignVersion { found, expected } => {
                write!(f, "checkpoint format version {found} (expected {expected})")
            }
            CkptError::StaleSalt { found, expected } => write!(
                f,
                "checkpoint written by a different code revision \
                 (salt {found:#018x}, expected {expected:#018x}); regenerate it"
            ),
            CkptError::Truncated { context } => {
                write!(f, "checkpoint truncated while reading {context}")
            }
            CkptError::CrcMismatch { section } => {
                write!(
                    f,
                    "checkpoint section `{section}` is corrupted (CRC mismatch)"
                )
            }
            CkptError::Malformed(what) => write!(f, "malformed checkpoint: {what}"),
            CkptError::MissingSection(name) => {
                write!(f, "checkpoint is missing section `{name}`")
            }
            CkptError::Mismatch {
                what,
                found,
                expected,
            } => write!(
                f,
                "checkpoint {what} mismatch: file has {found:#x}, machine expects {expected:#x}"
            ),
            CkptError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
        }
    }
}

impl std::error::Error for CkptError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CkptError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CkptError {
    fn from(e: io::Error) -> Self {
        CkptError::Io(e)
    }
}

// ----------------------------------------------------------------------
// CRC32 (IEEE 802.3, the zlib polynomial)
// ----------------------------------------------------------------------

/// CRC32 (IEEE) of `bytes` — the per-section integrity check.
///
/// Slicing-by-8: each step folds eight input bytes through eight
/// 256-entry tables, so a multi-megabyte checkpoint is checksummed at
/// memory speed rather than one bit at a time. A zero word starts a
/// zero run, which is measured and then skipped: a run of at least
/// 512 bytes advances the register in O(log n) — most of a warm
/// checkpoint is untouched, all-zero cache and memory chunks.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut rest = bytes;
    while let Some((w, tail)) = rest.split_first_chunk::<8>() {
        let w = u64::from_le_bytes(*w);
        if w != 0 {
            crc = crc_word(crc, w);
            rest = tail;
        } else {
            let run = zero_run_len(rest);
            crc = crc_zeros(crc, run);
            rest = &rest[run..];
        }
    }
    let t = &CRC_TABLES;
    for &b in rest {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

/// The length in bytes of the run of whole zero words `bytes` starts
/// with: 64-byte blocks first (one branch-free OR per block), then
/// single words.
fn zero_run_len(bytes: &[u8]) -> usize {
    let mut len = 0;
    for block in bytes.chunks_exact(64) {
        if block.iter().fold(0, |acc, &b| acc | b) != 0 {
            break;
        }
        len += 64;
    }
    while let Some(w) = bytes[len..].first_chunk::<8>() {
        if u64::from_ne_bytes(*w) != 0 {
            break;
        }
        len += 8;
    }
    len
}

/// Folds the eight little-endian bytes of `w` into the register.
#[inline(always)]
fn crc_word(crc: u32, w: u64) -> u32 {
    let t = &CRC_TABLES;
    let lo = w as u32 ^ crc;
    let hi = (w >> 32) as u32;
    t[7][(lo & 0xff) as usize]
        ^ t[6][((lo >> 8) & 0xff) as usize]
        ^ t[5][((lo >> 16) & 0xff) as usize]
        ^ t[4][(lo >> 24) as usize]
        ^ t[3][(hi & 0xff) as usize]
        ^ t[2][((hi >> 8) & 0xff) as usize]
        ^ t[1][((hi >> 16) & 0xff) as usize]
        ^ t[0][(hi >> 24) as usize]
}

/// Zero runs at least this long (bytes) are skipped by multiplying the
/// register by x^(8n) mod P — about as costly as folding a few hundred
/// bytes — rather than folded word by word.
const ZERO_RUN_MIN: usize = 512;

/// The register after `len` (a multiple of 8) zero bytes.
///
/// Appending a zero byte multiplies the register, as a polynomial over
/// GF(2), by x^8 modulo the CRC polynomial P; `len` of them multiply it
/// by x^(8·len), which [`X8N_TABLE`] builds from the set bits of `len`
/// (zlib's `crc32_combine` does the same with `x2nmodp`).
fn crc_zeros(mut crc: u32, len: usize) -> u32 {
    if len < ZERO_RUN_MIN {
        for _ in 0..len / 8 {
            crc = crc_word(crc, 0);
        }
        return crc;
    }
    let mut n = len;
    let mut k = 0;
    while n != 0 {
        if n & 1 != 0 {
            crc = multmodp(X8N_TABLE[k], crc);
        }
        n >>= 1;
        k += 1;
    }
    crc
}

/// `a · b mod P` for polynomials in the CRC's reflected bit order (bit
/// 31 is x^0). `a` must be non-zero.
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut m = 1u32 << 31;
    let mut p = 0;
    loop {
        if a & m != 0 {
            p ^= b;
            if a & (m - 1) == 0 {
                return p;
            }
        }
        m >>= 1;
        b = (b >> 1) ^ (0xedb8_8320 & (b & 1).wrapping_neg());
    }
}

/// `X8N_TABLE[k]` is x^(8·2^k) mod P, in reflected bit order.
static X8N_TABLE: [u32; 64] = x8n_table();

const fn x8n_table() -> [u32; 64] {
    let mut t = [0u32; 64];
    let mut p = 1u32 << 23; // x^8
    let mut k = 0;
    while k < 64 {
        t[k] = p;
        p = multmodp(p, p);
        k += 1;
    }
    t
}

/// `CRC_TABLES[0][b]` is the CRC register after shifting byte `b`
/// through the reflected polynomial `0xedb88320`; `CRC_TABLES[k][b]`
/// is that value shifted through `k` further zero bytes.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xedb8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

// ----------------------------------------------------------------------
// Section encoding
// ----------------------------------------------------------------------

/// Append-only little-endian encoder for one section's payload.
#[derive(Debug, Default)]
pub struct SectionWriter {
    buf: Vec<u8>,
    /// Where this section's payload starts in `buf`: nonzero when
    /// [`CheckpointWriter::write_section`] lends the container's own
    /// buffer, so the payload is encoded in place and never copied.
    start: usize,
}

impl SectionWriter {
    /// A fresh, empty payload.
    pub fn new() -> SectionWriter {
        SectionWriter::default()
    }

    /// Bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len() - self.start
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Consumes the writer, yielding the payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Makes room for at least `additional` more bytes, so an impl that
    /// knows its encoded size grows the buffer once.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte (0/1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends a `u16`, little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` via its IEEE-754 bit pattern (exact round trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Appends `n` zero bytes in one step: the encoding of a run of
    /// records whose every field is zero (`false`, `0`).
    pub fn put_zeros(&mut self, n: usize) {
        self.buf.resize(self.buf.len() + n, 0);
    }
}

/// Strictly-validated little-endian decoder over one section's payload.
/// Every read past the end is a typed error, never a panic.
///
/// The payload is a [`Cow`]: a reader over a section of a parsed
/// [`CheckpointReader`] borrows the caller's bytes, and a reader built
/// from a `Vec<u8>` owns them. Either way nothing is copied.
#[derive(Debug)]
pub struct SectionReader<'a> {
    buf: Cow<'a, [u8]>,
    pos: usize,
}

impl<'a> SectionReader<'a> {
    /// Wraps `bytes` (a borrowed slice or an owned `Vec<u8>`) for
    /// decoding.
    pub fn new(bytes: impl Into<Cow<'a, [u8]>>) -> SectionReader<'a> {
        SectionReader {
            buf: bytes.into(),
            pos: 0,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consumes `n` bytes, returning their range in the payload.
    fn skip(&mut self, n: usize, context: &'static str) -> Result<Range<usize>, CkptError> {
        if self.remaining() < n {
            return Err(CkptError::Truncated { context });
        }
        self.pos += n;
        Ok(self.pos - n..self.pos)
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&[u8], CkptError> {
        let range = self.skip(n, context)?;
        Ok(&self.buf[range])
    }

    /// Reads one byte.
    pub fn take_u8(&mut self, context: &'static str) -> Result<u8, CkptError> {
        Ok(self.take(1, context)?[0])
    }

    /// Reads a bool; any byte other than 0/1 is malformed.
    pub fn take_bool(&mut self, context: &'static str) -> Result<bool, CkptError> {
        match self.take_u8(context)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CkptError::Malformed(format!(
                "{context}: bool byte {other:#x}"
            ))),
        }
    }

    /// Reads a `u16`, little-endian.
    pub fn take_u16(&mut self, context: &'static str) -> Result<u16, CkptError> {
        let b = self.take(2, context)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a `u32`, little-endian.
    pub fn take_u32(&mut self, context: &'static str) -> Result<u32, CkptError> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a `u64`, little-endian.
    pub fn take_u64(&mut self, context: &'static str) -> Result<u64, CkptError> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn take_f64(&mut self, context: &'static str) -> Result<f64, CkptError> {
        Ok(f64::from_bits(self.take_u64(context)?))
    }

    /// Reads a length-prefixed byte string. `max` bounds the declared
    /// length so a corrupted prefix cannot drive a huge allocation.
    pub fn take_bytes(&mut self, max: u64, context: &'static str) -> Result<Vec<u8>, CkptError> {
        let len = self.take_u64(context)?;
        if len > max || len > self.remaining() as u64 {
            return Err(CkptError::Malformed(format!(
                "{context}: declared length {len} exceeds bounds"
            )));
        }
        Ok(self.take(len as usize, context)?.to_vec())
    }

    /// Reads a length prefix for a repeated group, validated against
    /// `max` entries (corruption guard, not a capacity contract).
    pub fn take_len(&mut self, max: u64, context: &'static str) -> Result<usize, CkptError> {
        let len = self.take_u64(context)?;
        if len > max {
            return Err(CkptError::Malformed(format!(
                "{context}: declared count {len} exceeds limit {max}"
            )));
        }
        Ok(len as usize)
    }

    /// Consumes the next `n` bytes if all of them are zero — the
    /// inverse of [`SectionWriter::put_zeros`]. Otherwise (a nonzero
    /// byte, or fewer than `n` bytes left) consumes nothing and returns
    /// false, so the caller can decode the same bytes field by field
    /// and report exactly the error that decoding finds.
    pub fn skip_zeros(&mut self, n: usize) -> bool {
        let Some(bytes) = self.buf.get(self.pos..self.pos.saturating_add(n)) else {
            return false;
        };
        // OR-folding fixed blocks vectorizes; an early-exit byte scan
        // does not.
        let mut blocks = bytes.chunks_exact(256);
        let zero = blocks.all(|b| b.iter().fold(0, |acc, &x| acc | x) == 0)
            && blocks.remainder().iter().all(|&x| x == 0);
        if zero {
            self.pos += n;
        }
        zero
    }

    /// Asserts the payload was consumed exactly — trailing garbage in a
    /// section means the reader and writer disagree on layout.
    pub fn finish(&self, section: &str) -> Result<(), CkptError> {
        if self.remaining() != 0 {
            return Err(CkptError::Malformed(format!(
                "section `{section}` has {} unread trailing bytes",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// Save/restore of one subsystem's state into a checkpoint section.
///
/// Contract: `restore` after `save` reproduces the exact state, and
/// `save` after that `restore` produces byte-identical payloads (the
/// property the round-trip test suites assert for every impl). Restore
/// must validate structure against the receiver's configuration and
/// fail with a typed [`CkptError`] rather than accept a shape mismatch.
pub trait Checkpointable {
    /// Serializes this subsystem's state.
    fn save(&self, w: &mut SectionWriter);
    /// Restores state previously written by [`Checkpointable::save`].
    ///
    /// # Errors
    ///
    /// Any [`CkptError`] on truncation, malformed data, or a shape
    /// mismatch with the receiver.
    fn restore(&mut self, r: &mut SectionReader<'_>) -> Result<(), CkptError>;
}

// ----------------------------------------------------------------------
// Container
// ----------------------------------------------------------------------

/// Builds a checkpoint file: named sections, each independently
/// CRC-protected, under a versioned + salted header.
///
/// The container is assembled in one buffer as sections are added:
/// [`CheckpointWriter::write_section`] encodes a payload in place and
/// patches its length and CRC afterwards, and
/// [`CheckpointWriter::into_bytes`] hands the buffer over as it is.
#[derive(Debug)]
pub struct CheckpointWriter {
    buf: Vec<u8>,
    count: u32,
}

/// Header bytes before the section count: magic, version, salt.
const COUNT_AT: usize = 4 + 2 + 8;

impl Default for CheckpointWriter {
    fn default() -> CheckpointWriter {
        CheckpointWriter::new()
    }
}

impl CheckpointWriter {
    /// An empty container.
    pub fn new() -> CheckpointWriter {
        let mut buf = Vec::with_capacity(COUNT_AT + 4);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        buf.extend_from_slice(&code_salt().to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        CheckpointWriter { buf, count: 0 }
    }

    /// Appends a section's framing (length and CRC left as zero) and
    /// returns where its payload will start.
    fn begin_section(&mut self, name: &str) -> usize {
        self.count += 1;
        self.buf[COUNT_AT..COUNT_AT + 4].copy_from_slice(&self.count.to_le_bytes());
        self.buf
            .extend_from_slice(&(name.len() as u16).to_le_bytes());
        self.buf.extend_from_slice(name.as_bytes());
        self.buf.extend_from_slice(&[0; 8 + 4]);
        self.buf.len()
    }

    /// Fills in the length and CRC of the section whose payload runs
    /// from `start` to the end of the buffer.
    fn end_section(&mut self, start: usize) {
        let (frame, payload) = self.buf.split_at_mut(start);
        let frame = &mut frame[start - (8 + 4)..];
        frame[..8].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        frame[8..].copy_from_slice(&crc32(payload).to_le_bytes());
    }

    /// Adds a raw pre-encoded section.
    pub fn add_section(&mut self, name: &str, payload: Vec<u8>) {
        let start = self.begin_section(name);
        self.buf.extend_from_slice(&payload);
        self.end_section(start);
    }

    /// Serializes `state` into a new section called `name`, encoding it
    /// straight into the container.
    pub fn write_section(&mut self, name: &str, state: &dyn Checkpointable) {
        let start = self.begin_section(name);
        let mut w = SectionWriter {
            buf: std::mem::take(&mut self.buf),
            start,
        };
        state.save(&mut w);
        self.buf = w.buf;
        self.end_section(start);
    }

    /// The encoded container so far (a copy; see
    /// [`CheckpointWriter::into_bytes`]).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.buf.clone()
    }

    /// Consumes the writer, yielding the encoded container.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// One parsed section: name, payload and whether the payload matches
/// its stored CRC, all borrowed from the container bytes.
#[derive(Debug)]
struct Section<'a> {
    name: &'a str,
    payload: &'a [u8],
    crc_ok: bool,
}

/// Parses and fully verifies a checkpoint container: magic, version,
/// salt and every section CRC are checked before any payload is handed
/// out. The reader borrows the container bytes; its sections and their
/// [`SectionReader`]s are views into them.
#[derive(Debug)]
pub struct CheckpointReader<'a> {
    salt: u64,
    sections: Vec<Section<'a>>,
}

impl<'a> CheckpointReader<'a> {
    /// Parses `bytes`, verifying the header against this build and every
    /// section against its CRC.
    ///
    /// # Errors
    ///
    /// [`CkptError::BadMagic`], [`CkptError::ForeignVersion`],
    /// [`CkptError::StaleSalt`], [`CkptError::Truncated`] or
    /// [`CkptError::CrcMismatch`].
    pub fn from_bytes(bytes: &'a [u8]) -> Result<CheckpointReader<'a>, CkptError> {
        let reader = Self::parse(bytes, true)?;
        if reader.salt != code_salt() {
            return Err(CkptError::StaleSalt {
                found: reader.salt,
                expected: code_salt(),
            });
        }
        Ok(reader)
    }

    /// Parses the container structure. `verify_crc` controls whether a
    /// CRC mismatch is fatal (restore) or merely reported (inspection).
    fn parse(bytes: &'a [u8], verify_crc: bool) -> Result<CheckpointReader<'a>, CkptError> {
        let mut r = SectionReader::new(bytes);
        let magic = r.take(4, "magic")?;
        if magic != MAGIC {
            return Err(CkptError::BadMagic);
        }
        let version = r.take_u16("format version")?;
        if version != FORMAT_VERSION {
            return Err(CkptError::ForeignVersion {
                found: version,
                expected: FORMAT_VERSION,
            });
        }
        let salt = r.take_u64("code salt")?;
        let count = r.take_u32("section count")?;
        let mut sections = Vec::with_capacity(count.min(1024) as usize);
        for _ in 0..count {
            let name_len = r.take_u16("section name length")? as usize;
            let name = std::str::from_utf8(&bytes[r.skip(name_len, "section name")?])
                .map_err(|_| CkptError::Malformed("section name is not UTF-8".into()))?;
            let payload_len = r.take_u64("section length")?;
            let stored_crc = r.take_u32("section crc")?;
            if payload_len > r.remaining() as u64 {
                return Err(CkptError::Truncated {
                    context: "section payload",
                });
            }
            let payload = &bytes[r.skip(payload_len as usize, "section payload")?];
            let crc_ok = crc32(payload) == stored_crc;
            if verify_crc && !crc_ok {
                return Err(CkptError::CrcMismatch {
                    section: name.to_string(),
                });
            }
            sections.push(Section {
                name,
                payload,
                crc_ok,
            });
        }
        r.finish("container")?;
        Ok(CheckpointReader { salt, sections })
    }

    /// The code salt stored in the file.
    pub fn salt(&self) -> u64 {
        self.salt
    }

    /// Names of the sections present, in file order.
    pub fn section_names(&self) -> Vec<&'a str> {
        self.sections.iter().map(|s| s.name).collect()
    }

    /// Opens the named section for decoding.
    ///
    /// # Errors
    ///
    /// [`CkptError::MissingSection`] when absent.
    pub fn section(&self, name: &str) -> Result<SectionReader<'a>, CkptError> {
        self.sections
            .iter()
            .find(|s| s.name == name)
            .map(|s| SectionReader::new(s.payload))
            .ok_or_else(|| CkptError::MissingSection(name.to_string()))
    }

    /// Restores `state` from the named section, requiring the payload to
    /// be consumed exactly.
    ///
    /// # Errors
    ///
    /// Any [`CkptError`] from the section lookup or the impl's restore.
    pub fn restore_section(
        &self,
        name: &str,
        state: &mut dyn Checkpointable,
    ) -> Result<(), CkptError> {
        let mut r = self.section(name)?;
        state.restore(&mut r)?;
        r.finish(name)
    }
}

// ----------------------------------------------------------------------
// Inspection (`nwo ckpt info`)
// ----------------------------------------------------------------------

/// One section's summary as seen by [`inspect`].
#[derive(Debug, Clone)]
pub struct SectionInfo {
    /// Section name.
    pub name: String,
    /// Payload length in bytes.
    pub len: u64,
    /// Whether the stored CRC matches the payload.
    pub crc_ok: bool,
}

/// A checkpoint's header and table of contents.
#[derive(Debug, Clone)]
pub struct CkptInfo {
    /// Container format version.
    pub version: u16,
    /// Code salt stored in the file.
    pub salt: u64,
    /// True when the salt matches this build (the file is restorable).
    pub salt_current: bool,
    /// Per-section summaries, in file order.
    pub sections: Vec<SectionInfo>,
}

/// Summarizes a checkpoint without restoring it. Unlike
/// [`CheckpointReader::from_bytes`] this tolerates a stale salt and
/// corrupted payloads (both are *reported*, not fatal), so `ckpt info`
/// can diagnose exactly the files restore rejects. Bad magic, a foreign
/// format version and truncation remain errors — there is nothing
/// trustworthy to print.
///
/// # Errors
///
/// [`CkptError::BadMagic`], [`CkptError::ForeignVersion`] or
/// [`CkptError::Truncated`].
pub fn inspect(bytes: &[u8]) -> Result<CkptInfo, CkptError> {
    let parsed = CheckpointReader::parse(bytes, false)?;
    Ok(CkptInfo {
        version: FORMAT_VERSION,
        salt: parsed.salt,
        salt_current: parsed.salt == code_salt(),
        sections: parsed
            .sections
            .iter()
            .map(|s| SectionInfo {
                name: s.name.to_string(),
                len: s.payload.len() as u64,
                crc_ok: s.crc_ok,
            })
            .collect(),
    })
}

// ----------------------------------------------------------------------
// Disk blob cache
// ----------------------------------------------------------------------

/// A directory of keyed binary blobs — the storage layer under both
/// checkpoint files and the harness's disk-persistent memo cache.
///
/// Keys are sanitized into file names (`[A-Za-z0-9._-]`, everything else
/// becomes `_`) with an FNV suffix so distinct keys never collide after
/// sanitization. Stores are atomic (temp file + rename), so a crashed
/// writer never leaves a torn blob — and a torn blob would be caught by
/// the per-section CRCs anyway. [`CacheDir::scrub`] walks the whole
/// directory verifying exactly that, quarantining damage and reaping
/// temp files orphaned by killed writers (`nwo cache scrub`).
#[derive(Debug, Clone)]
pub struct CacheDir {
    root: PathBuf,
    /// Remaining injected transient I/O failures (robustness testing).
    /// `Clone` shares the budget, so every handle to the same cache
    /// draws from one fault counter.
    inject: Option<std::sync::Arc<std::sync::atomic::AtomicU64>>,
}

impl CacheDir {
    /// A cache rooted at `root` (created lazily on first store).
    pub fn new(root: impl Into<PathBuf>) -> CacheDir {
        CacheDir {
            root: root.into(),
            inject: None,
        }
    }

    /// A cache that fails its next `faults` load/store calls with a
    /// transient [`CkptError::Io`] before behaving normally — a
    /// deterministic stand-in for flaky network filesystems, used to
    /// exercise the bench runner's retry path.
    pub fn with_injected_faults(root: impl Into<PathBuf>, faults: u64) -> CacheDir {
        CacheDir {
            root: root.into(),
            inject: Some(std::sync::Arc::new(std::sync::atomic::AtomicU64::new(
                faults,
            ))),
        }
    }

    /// Reads the cache location from environment variable `var`; `None`
    /// when unset or empty (caching off by default). When
    /// `NWO_CACHE_FAULTS` is set to a positive integer, that many
    /// initial load/store calls fail with an injected transient I/O
    /// error (see [`CacheDir::with_injected_faults`]).
    pub fn from_env(var: &str) -> Option<CacheDir> {
        let root = match std::env::var_os(var) {
            Some(v) if !v.is_empty() => PathBuf::from(v),
            _ => return None,
        };
        let faults = std::env::var("NWO_CACHE_FAULTS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0);
        Some(if faults > 0 {
            CacheDir::with_injected_faults(root, faults)
        } else {
            CacheDir::new(root)
        })
    }

    /// Consumes one injected fault if any remain.
    fn injected_failure(&self, op: &str) -> Result<(), CkptError> {
        if let Some(budget) = &self.inject {
            use std::sync::atomic::Ordering;
            // Decrement-if-positive without underflowing concurrent takers.
            let mut left = budget.load(Ordering::Relaxed);
            while left > 0 {
                match budget.compare_exchange(left, left - 1, Ordering::Relaxed, Ordering::Relaxed)
                {
                    Ok(_) => {
                        return Err(CkptError::Io(io::Error::other(format!(
                            "injected transient I/O fault during {op}"
                        ))));
                    }
                    Err(now) => left = now,
                }
            }
        }
        Ok(())
    }

    /// The directory blobs live in.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The file a key maps to.
    pub fn path_for(&self, key: &str) -> PathBuf {
        let sanitized: String = key
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        self.root
            .join(format!("{sanitized}-{:016x}.ckpt", fnv1a(key.as_bytes())))
    }

    /// Loads the blob stored under `key`, or `None` when absent.
    ///
    /// # Errors
    ///
    /// [`CkptError::Io`] for filesystem failures other than not-found.
    pub fn load(&self, key: &str) -> Result<Option<Vec<u8>>, CkptError> {
        self.injected_failure("load")?;
        match std::fs::read(self.path_for(key)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(CkptError::Io(e)),
        }
    }

    /// Atomically stores `bytes` under `key` (temp file + rename).
    ///
    /// The temp name carries the pid *and* a process-wide sequence
    /// number: two threads storing the same key concurrently must not
    /// share a temp path, or one writer's rename can publish the other
    /// writer's half-written bytes — exactly the torn blob the atomic
    /// dance exists to prevent. A failed rename removes its temp file
    /// so crashes do not strand orphans (and [`CacheDir::scrub`] reaps
    /// any that a hard kill leaves behind).
    ///
    /// # Errors
    ///
    /// [`CkptError::Io`] for filesystem failures.
    pub fn store(&self, key: &str, bytes: &[u8]) -> Result<(), CkptError> {
        static STORE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        self.injected_failure("store")?;
        std::fs::create_dir_all(&self.root)?;
        let dest = self.path_for(key);
        let seq = STORE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = dest.with_extension(format!("tmp.{}.{seq}", std::process::id()));
        std::fs::write(&tmp, bytes)?;
        if let Err(e) = std::fs::rename(&tmp, &dest) {
            let _ = std::fs::remove_file(&tmp);
            return Err(CkptError::Io(e));
        }
        Ok(())
    }

    /// Walks every blob in the cache, verifying container structure,
    /// code salt and per-section CRCs, optionally quarantining corrupt
    /// blobs and reaping orphaned temp files. See [`ScrubReport`] for
    /// what comes back; the walk order (and therefore the report) is
    /// deterministic — entries are sorted by file name.
    ///
    /// A missing cache directory is an empty (clean) report, matching
    /// `load`'s treatment of absent blobs.
    ///
    /// # Errors
    ///
    /// [`CkptError::Io`] for filesystem failures while walking or
    /// renaming — a *corrupt blob* is never an error, it is the thing
    /// being reported.
    pub fn scrub(&self, options: &ScrubOptions) -> Result<ScrubReport, CkptError> {
        let mut report = ScrubReport::default();
        let dir = match std::fs::read_dir(&self.root) {
            Ok(dir) => dir,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(report),
            Err(e) => return Err(CkptError::Io(e)),
        };
        let mut names: Vec<String> = Vec::new();
        for entry in dir {
            let entry = entry.map_err(CkptError::Io)?;
            if entry.file_type().map_err(CkptError::Io)?.is_file() {
                if let Ok(name) = entry.file_name().into_string() {
                    names.push(name);
                }
            }
        }
        names.sort();
        for name in names {
            let path = self.root.join(&name);
            if name.ends_with(".quarantined") {
                report.prior_quarantined += 1;
                continue;
            }
            if name.contains(".tmp.") {
                // An orphaned temp file: a writer died between write
                // and rename. Never trustworthy, never referenced.
                if options.reap_tmp {
                    std::fs::remove_file(&path).map_err(CkptError::Io)?;
                }
                report.reaped_tmp.push(name);
                continue;
            }
            if !name.ends_with(".ckpt") {
                continue;
            }
            let bytes = std::fs::read(&path).map_err(CkptError::Io)?;
            let health = blob_health(&bytes);
            let mut quarantined = false;
            if matches!(health, BlobHealth::Corrupt(_)) && options.quarantine {
                let mut target = path.clone().into_os_string();
                target.push(".quarantined");
                std::fs::rename(&path, &target).map_err(CkptError::Io)?;
                quarantined = true;
            }
            report.entries.push(ScrubEntry {
                file: name,
                health,
                quarantined,
            });
        }
        Ok(report)
    }
}

/// What [`CacheDir::scrub`] should do beyond reporting.
#[derive(Debug, Clone, Copy)]
pub struct ScrubOptions {
    /// Rename corrupt blobs to `<name>.quarantined` so the cache never
    /// serves them again (a later identical request re-simulates and
    /// re-stores a healthy blob).
    pub quarantine: bool,
    /// Delete orphaned `*.tmp.*` files left by writers that died
    /// between write and rename.
    pub reap_tmp: bool,
}

impl Default for ScrubOptions {
    fn default() -> ScrubOptions {
        ScrubOptions {
            quarantine: true,
            reap_tmp: true,
        }
    }
}

/// One blob's verdict from a scrub walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlobHealth {
    /// Structure, salt and every section CRC check out.
    Ok,
    /// The container is damaged (bad magic, foreign version,
    /// truncation, malformed framing, or a section CRC mismatch) —
    /// carries the diagnosis. These blobs are quarantine candidates.
    Corrupt(String),
    /// Structurally sound but written by a different code revision
    /// (carries the stale salt). Not damage — the blob is merely
    /// unusable by this build, and is reported rather than touched.
    Stale(u64),
}

/// One scrubbed blob.
#[derive(Debug, Clone)]
pub struct ScrubEntry {
    /// The blob's file name inside the cache directory.
    pub file: String,
    /// The verdict.
    pub health: BlobHealth,
    /// Whether this scrub renamed it to `.quarantined`.
    pub quarantined: bool,
}

/// Everything one [`CacheDir::scrub`] walk found, in deterministic
/// (name-sorted) order.
#[derive(Debug, Clone, Default)]
pub struct ScrubReport {
    /// Every `.ckpt` blob examined.
    pub entries: Vec<ScrubEntry>,
    /// Orphaned temp files found (and deleted, when
    /// [`ScrubOptions::reap_tmp`] was set).
    pub reaped_tmp: Vec<String>,
    /// Blobs already quarantined by an earlier scrub.
    pub prior_quarantined: u64,
}

impl ScrubReport {
    /// Healthy blobs.
    pub fn ok(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.health == BlobHealth::Ok)
            .count()
    }

    /// Corrupt blobs found by this walk.
    pub fn corrupt(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| matches!(e.health, BlobHealth::Corrupt(_)))
            .count()
    }

    /// Stale-salt blobs found by this walk.
    pub fn stale(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| matches!(e.health, BlobHealth::Stale(_)))
            .count()
    }

    /// True when nothing was corrupt, stale or orphaned.
    pub fn clean(&self) -> bool {
        self.corrupt() == 0 && self.stale() == 0 && self.reaped_tmp.is_empty()
    }
}

/// Classifies one blob's bytes for [`CacheDir::scrub`], reusing the
/// tolerant [`inspect`] parse: structural damage and CRC mismatches
/// are [`BlobHealth::Corrupt`], a foreign code salt is
/// [`BlobHealth::Stale`].
fn blob_health(bytes: &[u8]) -> BlobHealth {
    match inspect(bytes) {
        Err(e) => BlobHealth::Corrupt(e.to_string()),
        Ok(info) => {
            if let Some(bad) = info.sections.iter().find(|s| !s.crc_ok) {
                BlobHealth::Corrupt(format!("section `{}` CRC mismatch", bad.name))
            } else if !info.salt_current {
                BlobHealth::Stale(info.salt)
            } else {
                BlobHealth::Ok
            }
        }
    }
}

/// Runs a cache I/O operation up to three times, backing off ~10ms then
/// ~40ms between attempts. Shared filesystems fail transiently; a cache
/// miss costs a full re-simulation, so a couple of cheap retries pay for
/// themselves many times over. The final error is returned unchanged.
///
/// Shared by every [`CacheDir`] consumer — the bench runner's disk
/// result cache, its warm-checkpoint spill and the `nwo-serve` daemon's
/// server-side cache I/O all retry with the same policy.
///
/// # Errors
///
/// The last [`CkptError`] once all attempts are exhausted.
pub fn with_retry<T>(mut op: impl FnMut() -> Result<T, CkptError>) -> Result<T, CkptError> {
    let mut delay = std::time::Duration::from_millis(10);
    let mut last = None;
    for attempt in 0..3 {
        if attempt > 0 {
            std::thread::sleep(delay);
            delay *= 4;
        }
        match op() {
            Ok(v) => return Ok(v),
            Err(e) => last = Some(e),
        }
    }
    Err(last.expect("retry loop ran at least once"))
}

/// Saves checkpoint `bytes` to `path` (convenience over `fs::write` with
/// a typed error).
///
/// # Errors
///
/// [`CkptError::Io`] on filesystem failure.
pub fn save_file(path: &Path, bytes: &[u8]) -> Result<(), CkptError> {
    std::fs::write(path, bytes).map_err(CkptError::Io)
}

/// Loads a checkpoint file.
///
/// # Errors
///
/// [`CkptError::Io`] on filesystem failure.
pub fn load_file(path: &Path) -> Result<Vec<u8>, CkptError> {
    std::fs::read(path).map_err(CkptError::Io)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy subsystem exercising every scalar type.
    #[derive(Debug, Default, Clone, PartialEq)]
    struct Toy {
        a: u64,
        b: f64,
        c: bool,
        d: Vec<u8>,
    }

    impl Checkpointable for Toy {
        fn save(&self, w: &mut SectionWriter) {
            w.put_u64(self.a);
            w.put_f64(self.b);
            w.put_bool(self.c);
            w.put_bytes(&self.d);
        }

        fn restore(&mut self, r: &mut SectionReader) -> Result<(), CkptError> {
            self.a = r.take_u64("toy.a")?;
            self.b = r.take_f64("toy.b")?;
            self.c = r.take_bool("toy.c")?;
            self.d = r.take_bytes(1 << 20, "toy.d")?;
            Ok(())
        }
    }

    fn sample() -> Vec<u8> {
        let toy = Toy {
            a: 0xdead_beef_cafe_f00d,
            b: -1.5e300,
            c: true,
            d: vec![1, 2, 3, 255],
        };
        let mut w = CheckpointWriter::new();
        w.write_section("toy", &toy);
        w.write_section("empty", &SectionWriterless);
        w.to_bytes()
    }

    /// A zero-byte section participant.
    struct SectionWriterless;
    impl Checkpointable for SectionWriterless {
        fn save(&self, _w: &mut SectionWriter) {}
        fn restore(&mut self, _r: &mut SectionReader) -> Result<(), CkptError> {
            Ok(())
        }
    }

    #[test]
    fn round_trip_restores_exact_state_and_rewrites_identically() {
        let bytes = sample();
        let reader = CheckpointReader::from_bytes(&bytes).unwrap();
        let mut toy = Toy::default();
        reader.restore_section("toy", &mut toy).unwrap();
        assert_eq!(toy.a, 0xdead_beef_cafe_f00d);
        assert_eq!(toy.b, -1.5e300);
        assert!(toy.c);
        assert_eq!(toy.d, vec![1, 2, 3, 255]);
        // save → restore → save is byte-identical.
        let mut w = CheckpointWriter::new();
        w.write_section("toy", &toy);
        w.write_section("empty", &SectionWriterless);
        assert_eq!(w.to_bytes(), bytes);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample();
        bytes[0] = b'X';
        assert!(matches!(
            CheckpointReader::from_bytes(&bytes),
            Err(CkptError::BadMagic)
        ));
        assert!(matches!(inspect(&bytes), Err(CkptError::BadMagic)));
    }

    #[test]
    fn foreign_version_is_rejected() {
        let mut bytes = sample();
        bytes[4] = bytes[4].wrapping_add(1);
        let err = CheckpointReader::from_bytes(&bytes).unwrap_err();
        assert!(matches!(err, CkptError::ForeignVersion { .. }));
    }

    #[test]
    fn stale_salt_is_rejected_on_restore_but_tolerated_by_inspect() {
        let mut bytes = sample();
        bytes[6] ^= 0xff; // flip a salt byte
        let err = CheckpointReader::from_bytes(&bytes).unwrap_err();
        assert!(matches!(err, CkptError::StaleSalt { .. }));
        let info = inspect(&bytes).unwrap();
        assert!(!info.salt_current);
        assert_eq!(info.sections.len(), 2);
        assert!(info.sections.iter().all(|s| s.crc_ok));
    }

    #[test]
    fn every_truncation_point_is_detected() {
        let bytes = sample();
        for cut in 0..bytes.len() {
            let truncated = &bytes[..cut];
            let err = CheckpointReader::from_bytes(truncated).unwrap_err();
            assert!(
                matches!(err, CkptError::Truncated { .. } | CkptError::Malformed(_)),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn flipping_any_payload_byte_is_a_crc_mismatch() {
        let bytes = sample();
        // The toy payload occupies the tail before the empty section's
        // framing; flip a byte inside it.
        let header = 4 + 2 + 8 + 4;
        let frame = 2 + "toy".len() + 8 + 4;
        let payload_start = header + frame;
        let mut corrupted = bytes.clone();
        corrupted[payload_start + 5] ^= 0x40;
        let err = CheckpointReader::from_bytes(&corrupted).unwrap_err();
        assert!(
            matches!(&err, CkptError::CrcMismatch { section } if section == "toy"),
            "got {err:?}"
        );
        // inspect reports it instead of failing.
        let info = inspect(&corrupted).unwrap();
        assert!(!info.sections[0].crc_ok);
        assert!(info.sections[1].crc_ok);
    }

    #[test]
    fn missing_sections_and_trailing_bytes_are_typed_errors() {
        let bytes = sample();
        let reader = CheckpointReader::from_bytes(&bytes).unwrap();
        let mut toy = Toy::default();
        assert!(matches!(
            reader.restore_section("nope", &mut toy),
            Err(CkptError::MissingSection(_))
        ));
        // Restoring the empty section into Toy hits truncation.
        assert!(matches!(
            reader.restore_section("empty", &mut toy),
            Err(CkptError::Truncated { .. })
        ));
    }

    #[test]
    fn oversized_declared_lengths_are_malformed_not_oom() {
        let mut w = SectionWriter::new();
        w.put_u64(u64::MAX); // an absurd length prefix
        let mut r = SectionReader::new(w.into_bytes());
        assert!(matches!(
            r.take_bytes(1 << 30, "blob"),
            Err(CkptError::Malformed(_))
        ));
        let mut w = SectionWriter::new();
        w.put_u64(10_000);
        let mut r = SectionReader::new(w.into_bytes());
        assert!(matches!(
            r.take_len(100, "count"),
            Err(CkptError::Malformed(_))
        ));
    }

    #[test]
    fn bool_bytes_are_validated() {
        let mut r = SectionReader::new(vec![7]);
        assert!(matches!(r.take_bool("flag"), Err(CkptError::Malformed(_))));
    }

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE CRC32 of "123456789" is 0xcbf43926.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bit-at-a-time CRC32 the table-driven one must equal.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xedb8_8320 & mask);
            }
        }
        !crc
    }

    proptest::proptest! {
        /// Slicing-by-8 equals the bitwise CRC on any length, whichever
        /// address the bytes start at (the 8-byte steps are unaligned
        /// reads, the tail is byte at a time).
        #[test]
        fn table_crc32_matches_bitwise_reference(
            bytes in proptest::collection::vec(proptest::any::<u8>(), 0..=300)
        ) {
            let expected = crc32_bitwise(&bytes);
            for offset in 0..8 {
                let mut buf = vec![0xa5; offset];
                buf.extend_from_slice(&bytes);
                proptest::prop_assert_eq!(crc32(&buf[offset..]), expected, "offset {}", offset);
            }
        }

        /// Zero runs, skipped in O(log n) once long enough, give the
        /// bitwise CRC too: buffers of random-byte and zero-run segments
        /// (runs straddle the skip threshold and touch both ends), at
        /// every start offset.
        #[test]
        fn zero_run_crc32_matches_bitwise_reference(
            head in 0usize..=5000,
            segments in proptest::collection::vec(
                (
                    proptest::any::<bool>(),
                    proptest::collection::vec(proptest::any::<u8>(), 0..=40),
                    0usize..=5000,
                ),
                0..=6,
            ),
            tail in 0usize..=5000,
        ) {
            let mut bytes = vec![0; head];
            for (zero, random, run) in segments {
                if zero {
                    bytes.resize(bytes.len() + run, 0);
                } else {
                    bytes.extend_from_slice(&random);
                }
            }
            bytes.resize(bytes.len() + tail, 0);
            let expected = crc32_bitwise(&bytes);
            for offset in 0..8 {
                let mut buf = vec![0xa5; offset];
                buf.extend_from_slice(&bytes);
                proptest::prop_assert_eq!(crc32(&buf[offset..]), expected, "offset {}", offset);
            }
        }
    }

    #[test]
    fn long_zero_runs_match_the_bitwise_reference() {
        for len in [ZERO_RUN_MIN - 8, ZERO_RUN_MIN, (1 << 20) + 8] {
            let mut bytes = vec![0u8; len + 2];
            bytes[0] = 0x5a;
            bytes[len + 1] = 0xc3;
            assert_eq!(crc32(&bytes), crc32_bitwise(&bytes), "run of {len}");
            assert_eq!(crc32(&bytes[1..=len]), crc32_bitwise(&bytes[1..=len]));
        }
    }

    #[test]
    fn sections_are_encoded_in_place_with_the_same_bytes() {
        // write_section encodes into the container buffer; add_section
        // copies a finished payload. Both give the same container.
        let toy = Toy {
            a: 1,
            b: 2.0,
            c: false,
            d: vec![9; 40],
        };
        let mut payload = SectionWriter::new();
        toy.save(&mut payload);
        let mut copied = CheckpointWriter::new();
        copied.add_section("toy", payload.into_bytes());
        copied.add_section("empty", Vec::new());
        let mut in_place = CheckpointWriter::new();
        in_place.write_section("toy", &toy);
        in_place.write_section("empty", &SectionWriterless);
        assert_eq!(in_place.to_bytes(), copied.to_bytes());
        assert_eq!(in_place.into_bytes(), copied.into_bytes());
        assert_eq!(
            CheckpointWriter::new().into_bytes().len(),
            4 + 2 + 8 + 4,
            "an empty container is a bare header"
        );
    }

    #[test]
    fn zero_runs_are_skipped_only_when_whole_and_zero() {
        let mut w = SectionWriter::new();
        w.put_u8(7);
        w.put_zeros(600);
        w.put_u8(1);
        assert_eq!(w.len(), 602);
        let bytes = w.into_bytes();
        let mut r = SectionReader::new(&bytes[..]);
        assert!(!r.skip_zeros(600), "a nonzero first byte");
        assert_eq!(r.take_u8("lead").unwrap(), 7);
        assert!(!r.skip_zeros(601), "a nonzero last byte");
        assert!(!r.skip_zeros(700), "fewer bytes than the run");
        assert!(!r.skip_zeros(usize::MAX), "a length past the address space");
        assert_eq!(r.remaining(), 601, "failed skips consume nothing");
        assert!(r.skip_zeros(600));
        assert!(r.skip_zeros(0));
        assert_eq!(r.take_u8("tail").unwrap(), 1);
        r.finish("zeros").unwrap();
    }

    #[test]
    fn readers_borrow_the_container() {
        let bytes = sample();
        let reader = CheckpointReader::from_bytes(&bytes).unwrap();
        let section = reader.section("toy").unwrap();
        assert!(matches!(section.buf, Cow::Borrowed(_)));
        let range = bytes.as_ptr_range();
        assert!(range.contains(&section.buf.as_ptr()));
        assert_eq!(reader.section_names(), ["toy", "empty"]);
    }

    #[test]
    fn cache_dir_stores_and_loads_blobs_atomically() {
        let root = std::env::temp_dir().join(format!("nwo-ckpt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cache = CacheDir::new(&root);
        assert_eq!(cache.load("missing").unwrap(), None);
        cache.store("report/compress s0 fp=1", b"hello").unwrap();
        assert_eq!(
            cache.load("report/compress s0 fp=1").unwrap().as_deref(),
            Some(&b"hello"[..])
        );
        // Distinct keys that sanitize identically still map to distinct
        // files thanks to the hash suffix.
        let a = cache.path_for("a/b");
        let b = cache.path_for("a_b");
        assert_ne!(a, b);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn injected_faults_are_transient_and_shared_across_clones() {
        let root = std::env::temp_dir().join(format!("nwo-ckpt-fault-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cache = CacheDir::with_injected_faults(&root, 2);
        let clone = cache.clone();
        // The budget is shared: one fault drawn on each handle.
        assert!(matches!(cache.store("k", b"v"), Err(CkptError::Io(_))));
        assert!(matches!(clone.load("k"), Err(CkptError::Io(_))));
        // Exhausted budget: operations succeed from now on.
        cache.store("k", b"v").unwrap();
        assert_eq!(clone.load("k").unwrap().as_deref(), Some(&b"v"[..]));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn with_retry_absorbs_transient_faults_and_surfaces_persistent_ones() {
        let root = std::env::temp_dir().join(format!("nwo-ckpt-retry-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        // Two injected faults: the third attempt of one operation wins.
        let cache = CacheDir::with_injected_faults(&root, 2);
        with_retry(|| cache.store("k", b"v")).expect("retries through 2 faults");
        assert_eq!(cache.load("k").unwrap().as_deref(), Some(&b"v"[..]));
        // More faults than one operation's attempts: the final error
        // surfaces unchanged.
        let flaky = CacheDir::with_injected_faults(&root, 99);
        assert!(matches!(
            with_retry(|| flaky.load("k")),
            Err(CkptError::Io(_))
        ));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn from_env_respects_unset_and_empty() {
        std::env::remove_var("NWO_CKPT_TEST_DIR");
        assert!(CacheDir::from_env("NWO_CKPT_TEST_DIR").is_none());
        std::env::set_var("NWO_CKPT_TEST_DIR", "");
        assert!(CacheDir::from_env("NWO_CKPT_TEST_DIR").is_none());
        std::env::set_var("NWO_CKPT_TEST_DIR", "/tmp/x");
        assert_eq!(
            CacheDir::from_env("NWO_CKPT_TEST_DIR").unwrap().root(),
            Path::new("/tmp/x")
        );
        std::env::remove_var("NWO_CKPT_TEST_DIR");
    }

    #[test]
    fn code_salt_is_stable_within_a_build() {
        assert_eq!(code_salt(), code_salt());
        assert_ne!(code_salt(), 0);
    }
}
