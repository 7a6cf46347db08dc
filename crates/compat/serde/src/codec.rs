//! A minimal self-describing text codec for trained-model persistence.
//!
//! The workspace cannot reach crates.io, so instead of `serde` + a format
//! crate this module provides the small substrate the model save/load path
//! needs: a line-oriented writer/reader pair plus the [`Codec`] trait the
//! model types implement.  Design goals, in order:
//!
//! 1. **Bit-exact round trips** — every `f64` is stored as the 16-hex-digit
//!    big-endian form of its IEEE-754 bits, so `decode(encode(x)) == x` bit
//!    for bit (a human-readable decimal rendering rides along as a comment).
//! 2. **Self-describing** — values are named and nested in `tag { ... }`
//!    scopes, so a mismatched field fails loudly with the line number instead
//!    of silently shifting every following value.
//! 3. **Deterministic output** — the same value always encodes to the same
//!    text, making golden tests and drift detection trivial.
//!
//! # Format
//!
//! ```text
//! ridge {
//!   alpha 3F847AE147AE147B ; 0.01
//!   coefficients {
//!     len 2
//!     v 4000000000000000 ; 2
//!     v 3FE0000000000000 ; 0.5
//!   }
//! }
//! ```
//!
//! Everything after `;` on a line is a comment; names and string values are
//! whitespace-free tokens.
//!
//! # Cost
//!
//! The format above is fixed: an `f64` field line is byte for byte
//! `format!("{name} {:016X} ; {value}", value.to_bits())` behind two spaces
//! per open scope.  The [`Writer`] appends each line straight into its
//! buffer (hex digits from a nibble table, the decimal comment and integers
//! through `write!`), so writing a line allocates nothing.  A writer built
//! with [`Writer::streaming`] spills that buffer to an [`io::Write`] sink
//! every 64 KiB, so a multi-megabyte model file (`autopower::save_model`)
//! is saved without ever holding its whole text.
//!
//! The [`Reader`] walks the text lazily and reads each line in one pass over
//! its bytes: the indentation, the `name value` (or `tag {`, or `}`) tokens,
//! the `;` that starts the comment and the newline that ends the line.
//! Scope lines are matched by comparing both tokens directly, `f64` bits are
//! parsed through a nibble table and integers digit by digit, and a
//! [`Reader::try_begin`] that does not match keeps the line it scanned for
//! the next read instead of scanning it again.  A line the [`Writer`] would
//! not produce (tabs, runs of spaces, extra tokens, non-ASCII content) is
//! read by the general tokenizer instead, which trims and splits on Unicode
//! whitespace: every line reads, and every error names its line, exactly as
//! under the general tokenizer alone.  Scalars are strict: an `f64` is
//! exactly 16 hex digits and a `u64` decimal digits only, so a signed value
//! (which `str::parse` would take) is refused.  [`push_bits`],
//! [`parse_f64_bits`] and [`parse_u64`] expose the same scalar forms for
//! values packed several to a token.
//!
//! The fast-trained AutoPower model is its heaviest user: 1.4 MB and 19,029
//! lines since model format version 2 stores each forest as its distinct
//! tree shapes plus one line of packed leaf bits per tree (16.8 MB and
//! 453,745 lines before, one scope per tree node).  On a 2-vCPU VM a load
//! of it takes ~6 ms, a good part of it compiling the forests for inference
//! rather than reading text, and a save ~7 ms.
//!
//! Text that does not change between encodes need not be formatted again:
//! [`Writer::capture`] keeps a copy of the lines it writes as a [`Fragment`],
//! and [`Writer::splice`] copies those lines verbatim into any writer at the
//! same depth — the same bytes the writer would have produced itself.

use std::error::Error;
use std::fmt::{self, Write as _};
use std::io;

/// Bytes a streaming [`Writer`] buffers before it spills them to its sink.
const SPILL_BYTES: usize = 64 * 1024;

/// Upper-case hex digits by nibble value.
const HEX_DIGITS: &[u8; 16] = b"0123456789ABCDEF";

/// A value that can be written to a [`Writer`] and read back from a
/// [`Reader`], bit-identically.
pub trait Codec: Sized {
    /// Writes `self` into the stream.
    fn encode(&self, w: &mut Writer);

    /// Reads a value previously written by [`Codec::encode`].
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] when the stream does not match the expected
    /// shape (wrong tag, wrong field name, malformed value, early end).
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;
}

/// A malformed or mismatched stream, with the 1-based line it was detected on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// 1-based line number of the offending line (0 = end of input).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl CodecError {
    /// Creates an error anchored to a 1-based line number (0 = end of input).
    ///
    /// Decoders reporting a *semantic* failure (bad count, unknown name,
    /// validation) should anchor it to [`Reader::line`] so the message points
    /// at the offending content instead of claiming truncation.
    pub fn new(line: usize, message: impl Into<String>) -> Self {
        Self {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "unexpected end of input: {}", self.message)
        } else {
            write!(f, "line {}: {}", self.line, self.message)
        }
    }
}

impl Error for CodecError {}

fn valid_token(token: &str) -> bool {
    !token.is_empty()
        && !token
            .chars()
            .any(|c| c.is_whitespace() || c == '{' || c == '}' || c == ';')
}

/// Serialises named scalars into nested `tag { ... }` scopes.
///
/// [`Writer::new`] collects the text in memory ([`Writer::finish`]);
/// [`Writer::streaming`] writes the same bytes to an [`io::Write`] sink
/// ([`Writer::finish_streaming`]).
pub struct Writer<'s> {
    out: String,
    depth: usize,
    sink: Option<Sink<'s>>,
}

/// Lines a [`Writer::capture`] wrote `depth` scopes deep, ready to be
/// [`Writer::splice`]d into any writer at that same depth.
#[derive(Debug, Clone)]
pub struct Fragment {
    depth: usize,
    text: String,
}

impl Fragment {
    /// The scope depth the lines were rendered at.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The rendered lines, each ending in a newline.
    pub fn as_str(&self) -> &str {
        &self.text
    }
}

/// Where a streaming [`Writer`] spills its buffer, and the first error the
/// sink returned (after which it is never written to again).
struct Sink<'s> {
    write: &'s mut dyn io::Write,
    error: Option<io::Error>,
}

impl Sink<'_> {
    /// Writes `buf` to the sink (unless it already failed) and empties it.
    fn spill(&mut self, buf: &mut String) {
        if self.error.is_none() {
            if let Err(e) = self.write.write_all(buf.as_bytes()) {
                self.error = Some(e);
            }
        }
        buf.clear();
    }
}

impl fmt::Debug for Writer<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Writer")
            .field("depth", &self.depth)
            .field("buffered", &self.out.len())
            .field("streaming", &self.sink.is_some())
            .finish()
    }
}

impl Default for Writer<'static> {
    fn default() -> Self {
        Self::new()
    }
}

impl Writer<'static> {
    /// Creates an empty in-memory writer.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty in-memory writer whose buffer holds `bytes` before
    /// it first grows.
    pub fn with_capacity(bytes: usize) -> Self {
        Self {
            out: String::with_capacity(bytes),
            depth: 0,
            sink: None,
        }
    }
}

impl<'s> Writer<'s> {
    /// Creates a writer that streams its text to `sink`, buffering about
    /// 64 KiB at a time.  Finish it with [`Writer::finish_streaming`].
    pub fn streaming(sink: &'s mut dyn io::Write) -> Self {
        Self {
            out: String::with_capacity(SPILL_BYTES + 256),
            depth: 0,
            sink: Some(Sink {
                write: sink,
                error: None,
            }),
        }
    }

    /// Starts a line: two spaces per open scope.
    fn indent(&mut self) {
        for _ in 0..self.depth {
            self.out.push_str("  ");
        }
    }

    /// Ends a line, spilling the buffer once a streaming writer has filled it.
    fn newline(&mut self) {
        self.out.push('\n');
        self.spill_if_full();
    }

    fn spill_if_full(&mut self) {
        if let Some(sink) = &mut self.sink {
            if self.out.len() >= SPILL_BYTES {
                sink.spill(&mut self.out);
            }
        }
    }

    /// Starts a field line: indentation, `name` and the separating space.
    fn field(&mut self, name: &str) {
        assert!(valid_token(name), "invalid field name {name:?}");
        self.indent();
        self.out.push_str(name);
        self.out.push(' ');
    }

    /// Opens a named scope.
    ///
    /// # Panics
    ///
    /// Panics if `tag` is not a whitespace-free token.
    pub fn begin(&mut self, tag: &str) {
        assert!(valid_token(tag), "invalid scope tag {tag:?}");
        self.indent();
        self.out.push_str(tag);
        self.out.push_str(" {");
        self.newline();
        self.depth += 1;
    }

    /// Closes the innermost scope.
    ///
    /// # Panics
    ///
    /// Panics if no scope is open.
    pub fn end(&mut self) {
        assert!(self.depth > 0, "end() without a matching begin()");
        self.depth -= 1;
        self.indent();
        self.out.push('}');
        self.newline();
    }

    /// Writes an `f64` as its exact IEEE-754 bits plus a readable comment.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a whitespace-free token.
    pub fn f64(&mut self, name: &str, value: f64) {
        self.field(name);
        push_bits(&mut self.out, value);
        self.out.push_str(" ; ");
        write!(self.out, "{value}").expect("writing to a String cannot fail");
        self.newline();
    }

    /// Writes a `u64`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a whitespace-free token.
    pub fn u64(&mut self, name: &str, value: u64) {
        self.field(name);
        write!(self.out, "{value}").expect("writing to a String cannot fail");
        self.newline();
    }

    /// Writes a `bool`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a whitespace-free token.
    pub fn bool(&mut self, name: &str, value: bool) {
        self.field(name);
        self.out.push_str(if value { "true" } else { "false" });
        self.newline();
    }

    /// Writes a whitespace-free string token.
    ///
    /// # Panics
    ///
    /// Panics if `name` or `value` is not a whitespace-free token.
    pub fn str(&mut self, name: &str, value: &str) {
        assert!(valid_token(name), "invalid field name {name:?}");
        assert!(valid_token(value), "invalid string value {value:?}");
        self.indent();
        self.out.push_str(name);
        self.out.push(' ');
        self.out.push_str(value);
        self.newline();
    }

    /// Opens a scope that carries a `len` field — the conventional list shape.
    pub fn begin_list(&mut self, tag: &str, len: usize) {
        self.begin(tag);
        self.u64("len", len as u64);
    }

    /// Writes a whole `f64` slice as one list scope (element lines named `v`).
    pub fn f64_seq(&mut self, tag: &str, values: &[f64]) {
        self.begin_list(tag, values.len());
        for &v in values {
            self.f64("v", v);
        }
        self.end();
    }

    /// The number of scopes open around the next line.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Writes what `render` writes and returns a copy of those lines, to
    /// [`Writer::splice`] into later writers at the same depth.
    ///
    /// # Panics
    ///
    /// Panics if `render` leaves the writer at another depth than it found
    /// it (a scope left open, or one closed that it did not open).
    pub fn capture(&mut self, render: impl FnOnce(&mut Self)) -> Fragment {
        let (start, depth) = (self.out.len(), self.depth);
        // No spills while rendering, so the captured lines stay buffered.
        let sink = self.sink.take();
        render(self);
        self.sink = sink;
        assert_eq!(self.depth, depth, "capture() of unbalanced scopes");
        let fragment = Fragment {
            depth,
            text: self.out[start..].to_owned(),
        };
        self.spill_if_full();
        fragment
    }

    /// Appends `fragment`'s lines verbatim: exactly the bytes this writer
    /// would have produced rendering the same values itself.
    ///
    /// # Panics
    ///
    /// Panics if the fragment was captured at a depth other than this
    /// writer's [`Writer::depth`].
    pub fn splice(&mut self, fragment: &Fragment) {
        assert_eq!(
            fragment.depth, self.depth,
            "splice() of a fragment captured at another depth"
        );
        self.out.push_str(&fragment.text);
        self.spill_if_full();
    }

    /// Finishes an in-memory stream and returns the text.
    ///
    /// # Panics
    ///
    /// Panics if a scope is still open, or on a [`Writer::streaming`] writer.
    pub fn finish(self) -> String {
        assert_eq!(self.depth, 0, "finish() with {} open scope(s)", self.depth);
        assert!(
            self.sink.is_none(),
            "finish() on a streaming writer; use finish_streaming()"
        );
        self.out
    }

    /// Finishes a [`Writer::streaming`] stream: spills what is buffered and
    /// flushes the sink.
    ///
    /// # Errors
    ///
    /// Returns the first error the sink reported.  The writer stops writing
    /// to a sink once it fails, so nothing is written after that error.
    ///
    /// # Panics
    ///
    /// Panics if a scope is still open, or on an in-memory writer.
    pub fn finish_streaming(mut self) -> io::Result<()> {
        assert_eq!(self.depth, 0, "finish() with {} open scope(s)", self.depth);
        let mut sink = self
            .sink
            .take()
            .expect("finish_streaming() on an in-memory writer; use finish()");
        sink.spill(&mut self.out);
        match sink.error {
            Some(e) => Err(e),
            None => sink.write.flush(),
        }
    }
}

/// A line's whitespace-separated tokens joined by single spaces (for error
/// messages).
fn joined(content: &str) -> String {
    content.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Whether a byte belongs to a token on [`scan_line`]'s fast path: ASCII,
/// not `;` and not whitespace (`\n` and the ASCII characters with the
/// Unicode `White_Space` property, which `str::trim` and
/// `str::split_whitespace` cut at).
const TOKEN: [bool; 256] = {
    let mut token = [false; 256];
    let mut b = 0;
    while b < 0x80 {
        token[b] = !matches!(b as u8, b'\t' | b'\n' | 0x0B | 0x0C | b'\r' | b' ' | b';');
        b += 1;
    }
    token
};

/// Nibble value of a hex digit by byte (either case); `0xFF` for any other
/// byte.
const NIBBLE: [u8; 256] = {
    let mut nibble = [0xFF; 256];
    let mut d = 0;
    while d < 10 {
        nibble[b'0' as usize + d] = d as u8;
        d += 1;
    }
    let mut d = 0;
    while d < 6 {
        nibble[b'A' as usize + d] = 10 + d as u8;
        nibble[b'a' as usize + d] = 10 + d as u8;
        d += 1;
    }
    nibble
};

/// Appends the 16 upper-case hex digits of `value`'s IEEE-754 bits, the
/// token [`Writer::f64`] writes before its comment.  For values packed into
/// one token with others (a list of leaf weights on one line).
pub fn push_bits(out: &mut String, value: f64) {
    let bits = value.to_bits();
    let mut hex = [0u8; 16];
    for (i, digit) in hex.iter_mut().enumerate() {
        *digit = HEX_DIGITS[(bits >> (60 - 4 * i)) as usize & 0xF];
    }
    out.push_str(std::str::from_utf8(&hex).expect("hex digits are ASCII"));
}

/// The `f64` of a [`push_bits`] token: exactly 16 hex digits, no sign, or
/// `None`.
pub fn parse_f64_bits(value: &str) -> Option<f64> {
    (value.len() == 16)
        .then(|| parse_bits(value))
        .flatten()
        .map(f64::from_bits)
}

/// A decimal `u64` of digits only (no sign), or `None`.
pub fn parse_u64(value: &str) -> Option<u64> {
    if value.is_empty() {
        return None;
    }
    value.bytes().try_fold(0u64, |n, b| {
        let digit = b.wrapping_sub(b'0');
        if digit > 9 {
            return None;
        }
        n.checked_mul(10)?.checked_add(u64::from(digit))
    })
}

/// The bits of a 16-hex-digit value (no sign), or `None`.
fn parse_bits(value: &str) -> Option<u64> {
    value
        .bytes()
        .try_fold(0u64, |bits, b| match NIBBLE[usize::from(b)] {
            0xFF => None,
            nibble => Some(bits << 4 | u64::from(nibble)),
        })
}

/// One non-empty line of the stream.
#[derive(Debug, Clone, Copy)]
struct Line<'a> {
    /// 1-based line number.
    number: usize,
    /// Everything before a `;` comment, trimmed.
    content: &'a str,
    /// The content's tokens when it has exactly two (`name value`, or
    /// `tag {`), else `None`.
    pair: Option<(&'a str, &'a str)>,
}

impl<'a> Line<'a> {
    /// Whether the content is exactly the two tokens `tag {`.
    fn is_scope(&self, tag: &str) -> bool {
        self.pair == Some((tag, "{"))
    }
}

/// A line scanned from `start`: its content and token pair (see [`Line`]),
/// and the offset of the line after it.
type Scanned<'a> = (&'a str, Option<(&'a str, &'a str)>, usize);

/// Scans the line at byte `start` of `text` once, on the shape the
/// [`Writer`] produces: indentation spaces, one or two ASCII tokens split by
/// one space, and an optional comment (`;`, after a space or not) running to
/// the newline.  Any other line (tabs, runs of spaces, three tokens,
/// non-ASCII content) takes [`scan_general`], which reads every line the
/// same way this does and the rest as `str` trims and splits them.
fn scan_line(text: &str, start: usize) -> Scanned<'_> {
    let bytes = text.as_bytes();
    let at = |i: usize| bytes.get(i).copied();
    let token_end = |mut i: usize| {
        while bytes.get(i).is_some_and(|&b| TOKEN[usize::from(b)]) {
            i += 1;
        }
        i
    };
    // Indentation: eight spaces at a time, then one at a time.
    let mut first = start;
    while bytes.get(first..first + 8) == Some(b"        ") {
        first += 8;
    }
    while at(first) == Some(b' ') {
        first += 1;
    }
    let first_end = token_end(first);
    // `tail` is where the content ends: at a newline, a `;` or the end.
    let (end, pair, tail) = match (at(first_end), at(first_end + 1)) {
        (None | Some(b'\n' | b';'), _) => (first_end, None, first_end),
        (Some(b' '), Some(b)) if TOKEN[usize::from(b)] => {
            let second = first_end + 1;
            let end = token_end(second);
            let tail = match (at(end), at(end + 1)) {
                (Some(b' '), Some(b';')) => end + 1,
                _ => end,
            };
            let pair = (&text[first..first_end], &text[second..end]);
            (end, Some(pair), tail)
        }
        _ => return scan_general(text, start),
    };
    let next = match at(tail) {
        None => tail,
        Some(b'\n') => tail + 1,
        Some(b';') => bytes[tail + 1..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(bytes.len(), |n| tail + 2 + n),
        Some(_) => return scan_general(text, start),
    };
    (&text[first..end], pair, next)
}

/// [`scan_line`] for any line: the content is everything before the first
/// `;`, trimmed, and its tokens are split on Unicode whitespace.
fn scan_general(text: &str, start: usize) -> Scanned<'_> {
    let rest = &text[start..];
    let (line, next) = match rest.find('\n') {
        Some(n) => (&rest[..n], start + n + 1),
        None => (rest, text.len()),
    };
    let content = line.split(';').next().unwrap_or("").trim();
    let mut tokens = content.split_whitespace();
    let pair = match (tokens.next(), tokens.next(), tokens.next()) {
        (Some(name), Some(value), None) => Some((name, value)),
        _ => None,
    };
    (content, pair, next)
}

/// Reads the stream a [`Writer`] produced, one line at a time.
#[derive(Debug)]
pub struct Reader<'a> {
    text: &'a str,
    /// Byte offset of the first unread line.
    at: usize,
    /// Lines consumed so far (blank and comment-only lines included).
    pos: usize,
    /// The line a mismatched [`Reader::try_begin`] scanned but did not
    /// consume, and the offset after it, so it is not scanned twice.
    peeked: Option<(Line<'a>, usize)>,
}

impl<'a> Reader<'a> {
    /// Wraps a stream; blank and comment-only lines are skipped.
    pub fn new(text: &'a str) -> Self {
        Self {
            text,
            at: 0,
            pos: 0,
            peeked: None,
        }
    }

    /// Consumes the next non-empty line.
    fn next_line(&mut self) -> Result<Line<'a>, CodecError> {
        if let Some((line, after)) = self.peeked.take() {
            self.at = after;
            self.pos = line.number;
            return Ok(line);
        }
        while self.at < self.text.len() {
            let (content, pair, next) = scan_line(self.text, self.at);
            self.at = next;
            self.pos += 1;
            if !content.is_empty() {
                return Ok(Line {
                    number: self.pos,
                    content,
                    pair,
                });
            }
        }
        Err(CodecError::new(0, "no more lines".to_owned()))
    }

    fn field(&mut self, name: &str) -> Result<(usize, &'a str), CodecError> {
        let line = self.next_line()?;
        match line.pair {
            Some((found, value)) if found == name => Ok((line.number, value)),
            Some((found, _)) => Err(CodecError::new(
                line.number,
                format!("expected field '{name}', found '{found}'"),
            )),
            None => Err(CodecError::new(
                line.number,
                format!("expected field '{name}', found a non-field line"),
            )),
        }
    }

    /// Expects `tag {`.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] if the next line is not the expected scope.
    pub fn begin(&mut self, tag: &str) -> Result<(), CodecError> {
        let line = self.next_line()?;
        if line.is_scope(tag) {
            Ok(())
        } else {
            Err(CodecError::new(
                line.number,
                format!(
                    "expected scope '{tag} {{', found '{}'",
                    joined(line.content)
                ),
            ))
        }
    }

    /// Like [`Reader::begin`], but on a mismatch rewinds instead of erroring,
    /// so the caller can try another shape (used for enum-like payloads).
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] only at end of input.
    pub fn try_begin(&mut self, tag: &str) -> Result<bool, CodecError> {
        let (at, pos) = (self.at, self.pos);
        let line = self.next_line()?;
        if line.is_scope(tag) {
            Ok(true)
        } else {
            self.peeked = Some((line, self.at));
            self.at = at;
            self.pos = pos;
            Ok(false)
        }
    }

    /// Expects the closing `}` of a scope.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] if the next line is not a scope end.
    pub fn end(&mut self) -> Result<(), CodecError> {
        let line = self.next_line()?;
        if line.content == "}" {
            Ok(())
        } else {
            Err(CodecError::new(
                line.number,
                format!("expected '}}', found '{}'", joined(line.content)),
            ))
        }
    }

    /// Reads a named `f64` (exact bits: 16 hex digits, no sign).
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on a name mismatch or malformed bits.
    pub fn f64(&mut self, name: &str) -> Result<f64, CodecError> {
        let (line, value) = self.field(name)?;
        if value.len() != 16 {
            return Err(CodecError::new(
                line,
                format!("field '{name}': expected 16 hex digits, found '{value}'"),
            ));
        }
        parse_bits(value).map(f64::from_bits).ok_or_else(|| {
            CodecError::new(line, format!("field '{name}': malformed bits '{value}'"))
        })
    }

    /// Reads a named `u64` (decimal digits, no sign).
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on a name mismatch or malformed integer.
    pub fn u64(&mut self, name: &str) -> Result<u64, CodecError> {
        let (line, value) = self.field(name)?;
        parse_u64(value).ok_or_else(|| {
            CodecError::new(line, format!("field '{name}': malformed integer '{value}'"))
        })
    }

    /// Reads a named `bool`.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on a name mismatch or a non-boolean value.
    pub fn bool(&mut self, name: &str) -> Result<bool, CodecError> {
        let (line, value) = self.field(name)?;
        match value {
            "true" => Ok(true),
            "false" => Ok(false),
            other => Err(CodecError::new(
                line,
                format!("field '{name}': expected true/false, found '{other}'"),
            )),
        }
    }

    /// Reads a named string token.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on a name mismatch.
    pub fn str(&mut self, name: &str) -> Result<&'a str, CodecError> {
        Ok(self.field(name)?.1)
    }

    /// Opens a list scope and returns its declared length.
    ///
    /// Every entry takes at least one line, so a length above the bytes
    /// left in the stream is refused: decoders reserve room for `len`
    /// entries, and a corrupted length must not become a huge allocation.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] if the scope or its `len` field is missing,
    /// or the length exceeds the rest of the stream.
    pub fn begin_list(&mut self, tag: &str) -> Result<usize, CodecError> {
        self.begin(tag)?;
        let len = self.u64("len")?;
        let rest = self.text.len() - self.at;
        match usize::try_from(len) {
            Ok(len) if len <= rest => Ok(len),
            _ => Err(CodecError::new(
                self.pos,
                format!("list '{tag}' of {len} entries exceeds the {rest} bytes left"),
            )),
        }
    }

    /// Reads back an [`Writer::f64_seq`] list.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] if the list shape does not match.
    pub fn f64_seq(&mut self, tag: &str) -> Result<Vec<f64>, CodecError> {
        let len = self.begin_list(tag)?;
        let mut values = Vec::with_capacity(len);
        for _ in 0..len {
            values.push(self.f64("v")?);
        }
        self.end()?;
        Ok(values)
    }

    /// The 1-based number of the most recently consumed line (0 before the
    /// first read) — the anchor for semantic decode errors
    /// ([`CodecError::new`]).
    pub fn line(&self) -> usize {
        self.pos
    }

    /// Fails unless the whole stream has been consumed.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] naming the first trailing line.
    pub fn expect_eof(&mut self) -> Result<(), CodecError> {
        match self.next_line() {
            Err(_) => Ok(()),
            Ok(line) => Err(CodecError::new(
                line.number,
                format!("trailing content '{}'", joined(line.content)),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The line renderings the writer produced when every line was a
    /// `format!` — the byte-format oracle the allocation-free writer must
    /// reproduce exactly.
    mod oracle {
        pub fn line(depth: usize, content: &str) -> String {
            format!("{}{content}\n", "  ".repeat(depth))
        }

        pub fn begin(tag: &str) -> String {
            format!("{tag} {{")
        }

        pub fn f64(name: &str, value: f64) -> String {
            format!("{name} {:016X} ; {value}", value.to_bits())
        }

        pub fn u64(name: &str, value: u64) -> String {
            format!("{name} {value}")
        }

        pub fn bool(name: &str, value: bool) -> String {
            format!("{name} {value}")
        }

        pub fn str(name: &str, value: &str) -> String {
            format!("{name} {value}")
        }
    }

    /// The reader as it was before it scanned each line once: split the
    /// text at `\n`, cut each line at `;`, trim and split it on Unicode
    /// whitespace on every call, and rewind a mismatched `try_begin` to
    /// scan the line again.  The line-scanning [`Reader`] must give the
    /// same values, the same errors and the same line numbers, with one
    /// deliberate difference: `str::parse` and `u64::from_str_radix` accept
    /// a leading `+`, which the writer never produces, and both readers
    /// here refuse it.
    mod old_reader {
        use super::super::{joined, CodecError};

        pub fn content(line: &str) -> &str {
            line.split(';').next().unwrap_or("").trim()
        }

        fn is_scope(content: &str, tag: &str) -> bool {
            let mut tokens = content.split_whitespace();
            tokens.next() == Some(tag) && tokens.next() == Some("{") && tokens.next().is_none()
        }

        pub struct Reader<'a> {
            rest: &'a str,
            pos: usize,
        }

        impl<'a> Reader<'a> {
            pub fn new(text: &'a str) -> Self {
                Self { rest: text, pos: 0 }
            }

            fn next_line(&mut self) -> Result<(usize, &'a str), CodecError> {
                while !self.rest.is_empty() {
                    let (line, rest) = self.rest.split_once('\n').unwrap_or((self.rest, ""));
                    self.rest = rest;
                    self.pos += 1;
                    let content = content(line);
                    if !content.is_empty() {
                        return Ok((self.pos, content));
                    }
                }
                Err(CodecError::new(0, "no more lines".to_owned()))
            }

            fn field(&mut self, name: &str) -> Result<(usize, &'a str), CodecError> {
                let (line, content) = self.next_line()?;
                let mut tokens = content.split_whitespace();
                match (tokens.next(), tokens.next(), tokens.next()) {
                    (Some(found), Some(value), None) if found == name => Ok((line, value)),
                    (Some(found), Some(_), None) => Err(CodecError::new(
                        line,
                        format!("expected field '{name}', found '{found}'"),
                    )),
                    _ => Err(CodecError::new(
                        line,
                        format!("expected field '{name}', found a non-field line"),
                    )),
                }
            }

            pub fn begin(&mut self, tag: &str) -> Result<(), CodecError> {
                let (line, content) = self.next_line()?;
                if is_scope(content, tag) {
                    Ok(())
                } else {
                    Err(CodecError::new(
                        line,
                        format!("expected scope '{tag} {{', found '{}'", joined(content)),
                    ))
                }
            }

            pub fn try_begin(&mut self, tag: &str) -> Result<bool, CodecError> {
                let (saved_rest, saved_pos) = (self.rest, self.pos);
                let (_, content) = self.next_line()?;
                if is_scope(content, tag) {
                    Ok(true)
                } else {
                    self.rest = saved_rest;
                    self.pos = saved_pos;
                    Ok(false)
                }
            }

            pub fn end(&mut self) -> Result<(), CodecError> {
                let (line, content) = self.next_line()?;
                if content == "}" {
                    Ok(())
                } else {
                    Err(CodecError::new(
                        line,
                        format!("expected '}}', found '{}'", joined(content)),
                    ))
                }
            }

            pub fn f64(&mut self, name: &str) -> Result<f64, CodecError> {
                let (line, value) = self.field(name)?;
                if value.len() != 16 {
                    return Err(CodecError::new(
                        line,
                        format!("field '{name}': expected 16 hex digits, found '{value}'"),
                    ));
                }
                let malformed =
                    || CodecError::new(line, format!("field '{name}': malformed bits '{value}'"));
                if value.starts_with('+') {
                    return Err(malformed());
                }
                u64::from_str_radix(value, 16)
                    .map(f64::from_bits)
                    .map_err(|_| malformed())
            }

            pub fn u64(&mut self, name: &str) -> Result<u64, CodecError> {
                let (line, value) = self.field(name)?;
                let malformed = || {
                    CodecError::new(line, format!("field '{name}': malformed integer '{value}'"))
                };
                if value.starts_with('+') {
                    return Err(malformed());
                }
                value.parse().map_err(|_| malformed())
            }

            pub fn bool(&mut self, name: &str) -> Result<bool, CodecError> {
                let (line, value) = self.field(name)?;
                match value {
                    "true" => Ok(true),
                    "false" => Ok(false),
                    other => Err(CodecError::new(
                        line,
                        format!("field '{name}': expected true/false, found '{other}'"),
                    )),
                }
            }

            pub fn str(&mut self, name: &str) -> Result<&'a str, CodecError> {
                Ok(self.field(name)?.1)
            }

            pub fn line(&self) -> usize {
                self.pos
            }

            pub fn expect_eof(&mut self) -> Result<(), CodecError> {
                match self.next_line() {
                    Err(_) => Ok(()),
                    Ok((line, content)) => Err(CodecError::new(
                        line,
                        format!("trailing content '{}'", joined(content)),
                    )),
                }
            }
        }
    }

    /// The number of unread non-empty lines of `r` (0 when fully consumed).
    fn remaining(r: &Reader<'_>) -> usize {
        r.text[r.at..]
            .split('\n')
            .filter(|l| !old_reader::content(l).is_empty())
            .count()
    }

    /// `f64` bit patterns at the edges of the decimal rendering: NaN
    /// payloads of both signs, signed zeros, subnormals, infinities and the
    /// finite extremes.
    const EDGE_BITS: [u64; 16] = [
        0x7FF8_0000_0000_0000,
        0x7FF0_0000_0000_0001,
        0xFFF8_0000_0000_0123,
        0x7FFF_FFFF_FFFF_FFFF,
        0x0000_0000_0000_0000,
        0x8000_0000_0000_0000,
        0x0000_0000_0000_0001,
        0x000F_FFFF_FFFF_FFFF,
        0x800F_FFFF_FFFF_FFFF,
        0x7FF0_0000_0000_0000,
        0xFFF0_0000_0000_0000,
        0x7FEF_FFFF_FFFF_FFFF,
        0xFFEF_FFFF_FFFF_FFFF,
        0x0010_0000_0000_0000,
        0x3FF0_0000_0000_0000,
        0x3FD5_5555_5555_5555,
    ];

    /// One of each scalar line, at the writer's current depth.
    fn scalar_lines(w: &mut Writer, value: f64, n: u64) {
        w.f64("x", value);
        w.u64("n", n);
        w.u64("max", u64::MAX);
        w.bool("yes", true);
        w.bool("no", false);
        w.str("name", "mcpat-calib");
        w.f64_seq("v", &[value, -value]);
    }

    /// One of each scalar line at nesting `depth`, written by `w` (directly,
    /// or captured by another writer at that depth and spliced), and the
    /// text the oracle renders for it.
    fn scalars_at_depth(w: &mut Writer, depth: usize, value: f64, n: u64, spliced: bool) -> String {
        let mut expected = String::new();
        let mut donor = Writer::new();
        for level in 0..depth {
            w.begin("scope");
            donor.begin("scope");
            expected += &oracle::line(level, &oracle::begin("scope"));
        }
        if spliced {
            let fragment = donor.capture(|donor| scalar_lines(donor, value, n));
            assert_eq!(fragment.depth(), depth);
            w.splice(&fragment);
        } else {
            scalar_lines(w, value, n);
            scalar_lines(&mut donor, value, n);
        }
        for content in [
            oracle::f64("x", value),
            oracle::u64("n", n),
            oracle::u64("max", u64::MAX),
            oracle::bool("yes", true),
            oracle::bool("no", false),
            oracle::str("name", "mcpat-calib"),
            oracle::begin("v"),
        ] {
            expected += &oracle::line(depth, &content);
        }
        expected += &oracle::line(depth + 1, &oracle::u64("len", 2));
        expected += &oracle::line(depth + 1, &oracle::f64("v", value));
        expected += &oracle::line(depth + 1, &oracle::f64("v", -value));
        expected += &oracle::line(depth, "}");
        for level in (0..depth).rev() {
            w.end();
            donor.end();
            expected += &oracle::line(level, "}");
        }
        // Capturing writes the lines through as well.
        assert_eq!(donor.finish(), expected);
        expected
    }

    fn assert_matches_oracle(value: f64, n: u64, depth: usize, spliced: bool) {
        let mut w = Writer::new();
        let expected = scalars_at_depth(&mut w, depth, value, n, spliced);
        assert_eq!(w.finish(), expected, "bits {:016X}", value.to_bits());
    }

    #[test]
    fn edge_values_render_exactly_like_the_format_oracle() {
        for bits in EDGE_BITS {
            for depth in 0..=6 {
                for spliced in [false, true] {
                    assert_matches_oracle(f64::from_bits(bits), u64::MAX - bits, depth, spliced);
                }
            }
        }
    }

    proptest! {
        #[test]
        fn arbitrary_values_render_exactly_like_the_format_oracle(
            bits in 0u64..u64::MAX,
            n in 0u64..u64::MAX,
            depth in 0usize..7,
            spliced in 0u8..2,
        ) {
            let value = f64::from_bits(bits);
            let mut w = Writer::new();
            let expected = scalars_at_depth(&mut w, depth, value, n, spliced == 1);
            prop_assert_eq!(w.finish(), expected);
        }
    }

    #[test]
    #[should_panic(expected = "another depth")]
    fn a_fragment_cannot_be_spliced_at_another_depth() {
        let mut donor = Writer::new();
        donor.begin("scope");
        let fragment = donor.capture(|w| w.u64("n", 1));
        let mut w = Writer::new();
        w.splice(&fragment);
    }

    #[test]
    #[should_panic(expected = "unbalanced scopes")]
    fn a_capture_must_close_the_scopes_it_opens() {
        let mut w = Writer::new();
        let _ = w.capture(|w| w.begin("scope"));
    }

    /// How each probe line decoded before the reader stopped collecting
    /// tokens per line: the value, or the exact error text.
    #[test]
    fn tokenizer_accepts_and_rejects_exactly_as_pinned() {
        type Probe = fn(&mut Reader<'_>) -> Result<String, CodecError>;
        let u64_x: Probe = |r| r.u64("x").map(|v| v.to_string());
        let f64_x: Probe = |r| r.f64("x").map(|v| format!("{:016X}", v.to_bits()));
        let str_x: Probe = |r| r.str("x").map(str::to_owned);
        let begin_s: Probe = |r| r.begin("s").map(|()| "begin".to_owned());
        let end: Probe = |r| r.end().map(|()| "end".to_owned());
        let cases: [(&str, Probe, Result<&str, &str>); 22] = [
            ("x\t7\n", u64_x, Ok("7")),
            ("x    7   \n", u64_x, Ok("7")),
            ("\t x \t 7 \t\n", u64_x, Ok("7")),
            ("  x 7 ; a comment ; with; semicolons\n", u64_x, Ok("7")),
            ("x 7;tight\n", u64_x, Ok("7")),
            ("x 7\r\n", u64_x, Ok("7")),
            ("x 3FF0000000000000 ; 1\n", f64_x, Ok("3FF0000000000000")),
            ("x\tname-with-dashes\n", str_x, Ok("name-with-dashes")),
            (
                "x\n",
                u64_x,
                Err("line 1: expected field 'x', found a non-field line"),
            ),
            (
                "x 7 9\n",
                u64_x,
                Err("line 1: expected field 'x', found a non-field line"),
            ),
            (
                "y 7 ; c\n",
                u64_x,
                Err("line 1: expected field 'x', found 'y'"),
            ),
            (
                "x 7x\n",
                u64_x,
                Err("line 1: field 'x': malformed integer '7x'"),
            ),
            (
                "x 1234 ; c\n",
                f64_x,
                Err("line 1: field 'x': expected 16 hex digits, found '1234'"),
            ),
            (
                "x 3FF000000000000G\n",
                f64_x,
                Err("line 1: field 'x': malformed bits '3FF000000000000G'"),
            ),
            ("s\t{\n", begin_s, Ok("begin")),
            ("  s   {   ; c\n", begin_s, Ok("begin")),
            (
                "s { extra\n",
                begin_s,
                Err("line 1: expected scope 's {', found 's { extra'"),
            ),
            (
                "s\t\t{x\n",
                begin_s,
                Err("line 1: expected scope 's {', found 's {x'"),
            ),
            ("}\t; done\n", end, Ok("end")),
            ("}  }\n", end, Err("line 1: expected '}', found '} }'")),
            (
                "\n\t\n  ; only a comment\r\n;\n",
                end,
                Err("unexpected end of input: no more lines"),
            ),
            (
                "\n ; c\n\n  x\t\t1\t2\n",
                u64_x,
                Err("line 4: expected field 'x', found a non-field line"),
            ),
        ];
        for (text, probe, expected) in cases {
            let got = probe(&mut Reader::new(text)).map_err(|e| e.to_string());
            let expected = expected.map(str::to_owned).map_err(str::to_owned);
            assert_eq!(got, expected, "input {text:?}");
        }

        let mut r = Reader::new("x 1 ; c\ny\t  2 3 ; tail\n");
        assert_eq!(r.u64("x").unwrap(), 1);
        assert_eq!(
            r.expect_eof().unwrap_err().to_string(),
            "line 2: trailing content 'y 2 3'"
        );
    }

    /// One read a decode makes.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Begin(&'static str),
        TryBegin(&'static str),
        End,
        F64(&'static str),
        U64(&'static str),
        Bool(&'static str),
        Str(&'static str),
        Eof,
    }

    /// Runs `ops` on a reader until the first error: each read's value (f64
    /// as bits) or error, with the reader's line number after it.
    macro_rules! replay {
        ($reader:expr, $ops:expr) => {{
            let mut r = $reader;
            let mut trace = Vec::new();
            for &op in $ops {
                let got = match op {
                    Op::Begin(tag) => r.begin(tag).map(|()| "begin".to_owned()),
                    Op::TryBegin(tag) => r.try_begin(tag).map(|hit| hit.to_string()),
                    Op::End => r.end().map(|()| "end".to_owned()),
                    Op::F64(name) => r.f64(name).map(|v| format!("{:016X}", v.to_bits())),
                    Op::U64(name) => r.u64(name).map(|v| v.to_string()),
                    Op::Bool(name) => r.bool(name).map(|v| v.to_string()),
                    Op::Str(name) => r.str(name).map(str::to_owned),
                    Op::Eof => r.expect_eof().map(|()| "eof".to_owned()),
                };
                let failed = got.is_err();
                trace.push((got, r.line()));
                if failed {
                    break;
                }
            }
            trace
        }};
    }

    /// A splitmix64 stream for building documents and mutations.
    struct Mix(u64);

    impl Mix {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }

        fn pick<T: Copy>(&mut self, items: &[T]) -> T {
            items[self.below(items.len())]
        }
    }

    const NAMES: [&str; 4] = ["x", "alpha", "len", "name"];
    const TAGS: [&str; 3] = ["s", "tree", "model"];

    /// Writes a random nested document and the reads that decode it,
    /// including rewinding `try_begin`s of absent scopes.
    fn document(mix: &mut Mix, w: &mut Writer, ops: &mut Vec<Op>, depth: usize) {
        for _ in 0..2 + mix.below(5) {
            let name = mix.pick(&NAMES);
            if mix.below(4) == 0 {
                ops.push(Op::TryBegin("absent"));
            }
            match mix.below(if depth < 3 { 7 } else { 5 }) {
                0 => {
                    let bits = if mix.below(2) == 0 {
                        mix.pick(&EDGE_BITS)
                    } else {
                        (mix.below(1 << 31) as u64) << 33 | mix.below(1 << 31) as u64
                    };
                    w.f64(name, f64::from_bits(bits));
                    ops.push(Op::F64(name));
                }
                1 => {
                    w.u64(name, [0, 7, 1 << 40, u64::MAX][mix.below(4)]);
                    ops.push(Op::U64(name));
                }
                2 => {
                    w.bool(name, mix.below(2) == 0);
                    ops.push(Op::Bool(name));
                }
                3 => {
                    w.str(name, mix.pick(&["mcpat-calib", "q", "Ab_9"]));
                    ops.push(Op::Str(name));
                }
                4 => {
                    let values = [1.5, -0.0, f64::NAN, 1e-300];
                    let len = mix.below(values.len() + 1);
                    w.f64_seq("v", &values[..len]);
                    ops.extend([Op::Begin("v"), Op::U64("len")]);
                    ops.extend(std::iter::repeat_n(Op::F64("v"), len));
                    ops.push(Op::End);
                }
                _ => {
                    let tag = mix.pick(&TAGS);
                    w.begin(tag);
                    ops.push(if mix.below(2) == 0 {
                        Op::Begin(tag)
                    } else {
                        Op::TryBegin(tag)
                    });
                    document(mix, w, ops, depth + 1);
                    w.end();
                    ops.push(Op::End);
                }
            }
        }
    }

    /// Number of distinct [`mutate`] kinds.
    const MUTATIONS: usize = 19;

    /// Applies mutation `kind` at line `at` (modulo the line count, the
    /// empty piece after the final newline included) of `text`.
    fn mutate(text: &str, kind: usize, at: usize) -> String {
        let mut lines: Vec<String> = text.split('\n').map(str::to_owned).collect();
        let i = at % lines.len();
        let line = &mut lines[i];
        // Where the value token starts, and where the content ends.
        let indent = line.len() - line.trim_start_matches(' ').len();
        let value = line[indent..]
            .find(' ')
            .map_or(line.len(), |p| indent + p + 1);
        let content_end = line.find(" ;").unwrap_or(line.len());
        match kind {
            0 => drop(lines.remove(i)),
            1 => {
                let copy = line.clone();
                lines.insert(i, copy);
            }
            2 => line.insert_str(content_end, " extra"),
            3 => *line = line.replacen(' ', "\t", 1),
            4 => *line = line.replacen(' ', "\u{A0}", 1),
            5 => {
                if let Some(p) = line.rfind(' ') {
                    line.replace_range(p..=p, "\u{2003}");
                }
            }
            6 => line.push_str(" ; note \u{FC}; more"),
            7 => lines.insert(i, String::new()),
            8 => lines.insert(i, "  ; a comment".to_owned()),
            9 => line.push('\r'),
            10 => {
                if lines.last().is_some_and(String::is_empty) {
                    lines.pop();
                }
            }
            11 => line.insert(value, '+'),
            12 => line.insert(value, '-'),
            13 => {
                if content_end > value {
                    line.replace_range(content_end - 1..content_end, "G");
                }
            }
            14 => *line = line.to_lowercase(),
            15 => line.insert(0, '\u{3000}'),
            16 => line.insert_str(0, "\u{0B}\u{0C}"),
            17 => *line = line.replacen(' ', "   ", 1),
            _ => *line = line.replacen(" {", "{", 1),
        }
        lines.join("\n")
    }

    /// Decodes `text` with both readers and requires identical traces.
    fn assert_readers_agree(text: &str, ops: &[Op]) {
        let new = replay!(Reader::new(text), ops);
        let old = replay!(old_reader::Reader::new(text), ops);
        assert_eq!(new, old, "input {text:?}");
    }

    fn seeded_document(seed: u64) -> (String, Vec<Op>) {
        let mut mix = Mix(seed);
        let mut w = Writer::new();
        let mut ops = Vec::new();
        w.begin("doc");
        ops.push(Op::Begin("doc"));
        document(&mut mix, &mut w, &mut ops, 0);
        w.end();
        ops.extend([Op::End, Op::Eof]);
        (w.finish(), ops)
    }

    #[test]
    fn every_single_line_mutation_reads_like_the_old_reader() {
        let mut lines = 0;
        for seed in 0..12 {
            let (text, ops) = seeded_document(seed);
            let clean = replay!(Reader::new(&text), &ops);
            assert_eq!(clean.len(), ops.len());
            assert!(clean.iter().all(|(got, _)| got.is_ok()), "{clean:?}");
            assert_readers_agree(&text, &ops);
            lines += text.lines().count();
            for kind in 0..MUTATIONS {
                for at in 0..=text.lines().count() {
                    assert_readers_agree(&mutate(&text, kind, at), &ops);
                }
            }
        }
        assert!(lines > 300, "{lines} lines");
    }

    proptest! {
        #[test]
        fn mutated_documents_read_like_the_old_reader(seed in 0u64..u64::MAX) {
            let (text, ops) = seeded_document(seed);
            let mut mix = Mix(!seed);
            for _ in 0..16 {
                let mut mutated = text.clone();
                for _ in 0..=mix.below(3) {
                    mutated = mutate(&mutated, mix.below(MUTATIONS), mix.below(1 << 20));
                }
                let new = replay!(Reader::new(&mutated), &ops);
                let old = replay!(old_reader::Reader::new(&mutated), &ops);
                prop_assert_eq!(new, old);
            }
        }
    }

    #[test]
    fn signed_scalars_are_refused_with_their_line() {
        let text = "s {\n  n +7\n  x +3FF000000000000\n  y 3FF00000000000+0\n}\n";
        let mut r = Reader::new(text);
        r.begin("s").unwrap();
        assert_eq!(
            r.u64("n").unwrap_err().to_string(),
            "line 2: field 'n': malformed integer '+7'"
        );
        assert_eq!(
            r.f64("x").unwrap_err().to_string(),
            "line 3: field 'x': malformed bits '+3FF000000000000'"
        );
        assert_eq!(
            r.f64("y").unwrap_err().to_string(),
            "line 4: field 'y': malformed bits '3FF00000000000+0'"
        );
        assert_eq!(
            Reader::new("n 18446744073709551616\n")
                .u64("n")
                .unwrap_err()
                .to_string(),
            "line 1: field 'n': malformed integer '18446744073709551616'"
        );
        assert_eq!(Reader::new("n 00042\n").u64("n").unwrap(), 42);
        assert_eq!(Reader::new("x 3ff0000000000000\n").f64("x").unwrap(), 1.0);
    }

    #[test]
    fn reader_positions_survive_blank_lines_and_rewinds() {
        let text = "\n; header\nmodel {\n\n  n 7 ; seven\n  ; note\n  other {\n  }\n}\n\n";
        let mut r = Reader::new(text);
        assert_eq!((r.line(), remaining(&r)), (0, 5));
        r.begin("model").unwrap();
        assert_eq!((r.line(), remaining(&r)), (3, 4));
        assert_eq!(r.u64("n").unwrap(), 7);
        assert_eq!((r.line(), remaining(&r)), (5, 3));
        // A mismatched try_begin rewinds past the comment line it skipped.
        assert!(!r.try_begin("audit").unwrap());
        assert_eq!((r.line(), remaining(&r)), (5, 3));
        assert!(r.try_begin("other").unwrap());
        assert_eq!((r.line(), remaining(&r)), (7, 2));
        r.end().unwrap();
        r.end().unwrap();
        assert_eq!((r.line(), remaining(&r)), (9, 0));
        assert!(r.try_begin("more").is_err());
        r.expect_eof().unwrap();
    }

    /// A sink that records every write call and accepts `limit` bytes, then
    /// fails every call with `StorageFull`.
    struct FullDisk {
        limit: usize,
        bytes: Vec<u8>,
        largest_write: usize,
        writes: usize,
        failed: bool,
        calls_after_failure: usize,
    }

    impl FullDisk {
        fn new(limit: usize) -> Self {
            Self {
                limit,
                bytes: Vec::new(),
                largest_write: 0,
                writes: 0,
                failed: false,
                calls_after_failure: 0,
            }
        }
    }

    impl io::Write for FullDisk {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.failed {
                self.calls_after_failure += 1;
            }
            let room = self.limit - self.bytes.len();
            if room == 0 {
                self.failed = true;
                return Err(io::Error::new(io::ErrorKind::StorageFull, "disk full"));
            }
            let n = buf.len().min(room);
            self.bytes.extend_from_slice(&buf[..n]);
            self.largest_write = self.largest_write.max(n);
            self.writes += 1;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            if self.failed {
                self.calls_after_failure += 1;
            }
            Ok(())
        }
    }

    /// A document several spill buffers long.
    fn big_document(w: &mut Writer) {
        w.begin("doc");
        for i in 0..12_000u64 {
            w.f64("v", i as f64 / 7.0);
            w.u64("i", i);
        }
        w.end();
    }

    #[test]
    fn streaming_writes_the_in_memory_bytes_in_bounded_spills() {
        let mut w = Writer::new();
        big_document(&mut w);
        let text = w.finish();
        assert!(text.len() > 5 * SPILL_BYTES);

        let mut disk = FullDisk::new(usize::MAX);
        let mut w = Writer::streaming(&mut disk);
        big_document(&mut w);
        w.finish_streaming().unwrap();
        assert_eq!(disk.bytes, text.as_bytes());
        assert!(disk.writes > 5);
        assert!(disk.largest_write < SPILL_BYTES + 256);
    }

    #[test]
    fn streaming_captures_and_splices_write_the_in_memory_bytes() {
        let mut direct = Writer::new();
        direct.begin("docs");
        for i in 0..3 {
            direct.u64("i", i);
            big_document(&mut direct);
        }
        direct.end();
        let text = direct.finish();

        // The first document is captured (a streaming writer holds its
        // spills back meanwhile), the other two are spliced copies of it.
        let mut disk = FullDisk::new(usize::MAX);
        let mut w = Writer::streaming(&mut disk);
        w.begin("docs");
        w.u64("i", 0);
        let fragment = w.capture(big_document);
        for i in 1..3 {
            w.u64("i", i);
            w.splice(&fragment);
        }
        w.end();
        w.finish_streaming().unwrap();
        assert_eq!(disk.bytes, text.as_bytes());
        assert!(disk.writes > 3);
        assert!(disk.largest_write < SPILL_BYTES + fragment.as_str().len() + 256);
    }

    #[test]
    fn a_failing_sink_surfaces_its_error_and_is_never_written_again() {
        let mut w = Writer::new();
        big_document(&mut w);
        let text = w.finish();
        for limit in [0, 1, 100, SPILL_BYTES - 1, SPILL_BYTES, 3 * SPILL_BYTES + 7] {
            let mut disk = FullDisk::new(limit);
            let mut w = Writer::streaming(&mut disk);
            big_document(&mut w);
            let err = w.finish_streaming().unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::StorageFull, "limit {limit}");
            assert!(disk.failed);
            assert_eq!(disk.calls_after_failure, 0, "limit {limit}");
            assert_eq!(disk.bytes, &text.as_bytes()[..limit]);
        }
    }

    #[test]
    #[should_panic(expected = "use finish_streaming")]
    fn a_streaming_writer_cannot_be_finished_in_memory() {
        let mut sink = Vec::new();
        let _ = Writer::streaming(&mut sink).finish();
    }

    #[test]
    fn scalars_round_trip_bit_for_bit() {
        let values = [
            0.0,
            -0.0,
            1.0,
            -1.5,
            f64::MIN_POSITIVE,
            f64::MAX,
            1.0 / 3.0,
            2.4e-3,
        ];
        let mut w = Writer::new();
        w.begin("s");
        for v in values {
            w.f64("x", v);
        }
        w.u64("n", u64::MAX);
        w.bool("b", true);
        w.str("name", "mcpat-calib");
        w.end();
        let text = w.finish();
        let mut r = Reader::new(&text);
        r.begin("s").unwrap();
        for v in values {
            assert_eq!(r.f64("x").unwrap().to_bits(), v.to_bits());
        }
        assert_eq!(r.u64("n").unwrap(), u64::MAX);
        assert!(r.bool("b").unwrap());
        assert_eq!(r.str("name").unwrap(), "mcpat-calib");
        r.end().unwrap();
        r.expect_eof().unwrap();
    }

    #[test]
    fn a_list_longer_than_the_rest_of_the_stream_is_refused() {
        let mut w = Writer::new();
        w.f64_seq("coeffs", &[1.0, 2.0]);
        let text = w.finish();
        let huge = text.replace("len 2", "len 4611686018427387904");
        let err = Reader::new(&huge).f64_seq("coeffs").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("exceeds the"), "{err}");
        // Truncation: two entries promised, one line left.
        let short = text.replace("len 2", "len 40");
        assert!(Reader::new(&short).f64_seq("coeffs").is_err());
    }

    #[test]
    fn f64_seq_round_trips() {
        let mut w = Writer::new();
        w.f64_seq("coeffs", &[1.0, f64::NAN, -2.5]);
        let text = w.finish();
        let mut r = Reader::new(&text);
        let back = r.f64_seq("coeffs").unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back[0], 1.0);
        assert!(back[1].is_nan());
        assert_eq!(back[2], -2.5);
    }

    #[test]
    fn mismatches_fail_with_line_numbers() {
        let mut w = Writer::new();
        w.begin("model");
        w.f64("alpha", 1.0);
        w.end();
        let text = w.finish();

        let mut r = Reader::new(&text);
        let err = r.begin("other").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.to_string().contains("other"));

        let mut r = Reader::new(&text);
        r.begin("model").unwrap();
        let err = r.f64("beta").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("beta"));
        assert!(err.to_string().contains("alpha"));

        let mut r = Reader::new("model {\n  alpha deadbeef ; short\n}\n");
        r.begin("model").unwrap();
        assert!(r.f64("alpha").is_err());
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text = "\n; pure comment\nmodel {\n\n  n 7 ; seven\n}\n";
        let mut r = Reader::new(text);
        r.begin("model").unwrap();
        assert_eq!(r.u64("n").unwrap(), 7);
        r.end().unwrap();
        assert_eq!(remaining(&r), 0);
    }

    #[test]
    fn truncated_input_reports_eof() {
        let mut r = Reader::new("model {\n");
        r.begin("model").unwrap();
        let err = r.end().unwrap_err();
        assert_eq!(err.line, 0);
        assert!(err.to_string().contains("end of input"));
    }

    #[test]
    #[should_panic(expected = "invalid string value")]
    fn whitespace_in_string_values_is_rejected() {
        let mut w = Writer::new();
        w.str("name", "two words");
    }

    #[test]
    #[should_panic(expected = "open scope")]
    fn unbalanced_scopes_are_rejected_at_finish() {
        let mut w = Writer::new();
        w.begin("model");
        let _ = w.finish();
    }
}
