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
//! is saved without ever holding its whole text.  The [`Reader`] walks the
//! text lazily, one line at a time, and splits each line into tokens on
//! demand.

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
        Self {
            out: String::new(),
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
        let bits = value.to_bits();
        let mut hex = [0u8; 16];
        for (i, digit) in hex.iter_mut().enumerate() {
            *digit = HEX_DIGITS[(bits >> (60 - 4 * i)) as usize & 0xF];
        }
        self.out
            .push_str(std::str::from_utf8(&hex).expect("hex digits are ASCII"));
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

/// The content of one line: everything before a `;` comment, trimmed.
fn content(line: &str) -> &str {
    line.split(';').next().unwrap_or("").trim()
}

/// A line's whitespace-separated tokens joined by single spaces (for error
/// messages).
fn joined(content: &str) -> String {
    content.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Whether a line's content is exactly the two tokens `tag {`.
fn is_scope(content: &str, tag: &str) -> bool {
    let mut tokens = content.split_whitespace();
    tokens.next() == Some(tag) && tokens.next() == Some("{") && tokens.next().is_none()
}

/// Reads the stream a [`Writer`] produced, one line at a time.
#[derive(Debug)]
pub struct Reader<'a> {
    /// The text after the most recently consumed line.
    rest: &'a str,
    /// Lines consumed so far (blank and comment-only lines included).
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a stream; blank and comment-only lines are skipped.
    pub fn new(text: &'a str) -> Self {
        Self { rest: text, pos: 0 }
    }

    /// Consumes the next non-empty line as `(line_number, content)`.
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

    /// Expects `tag {`.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] if the next line is not the expected scope.
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

    /// Like [`Reader::begin`], but on a mismatch rewinds instead of erroring,
    /// so the caller can try another shape (used for enum-like payloads).
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] only at end of input.
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

    /// Expects the closing `}` of a scope.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] if the next line is not a scope end.
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

    /// Reads a named `f64` (exact bits).
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
        u64::from_str_radix(value, 16)
            .map(f64::from_bits)
            .map_err(|_| CodecError::new(line, format!("field '{name}': malformed bits '{value}'")))
    }

    /// Reads a named `u64`.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on a name mismatch or malformed integer.
    pub fn u64(&mut self, name: &str) -> Result<u64, CodecError> {
        let (line, value) = self.field(name)?;
        value.parse().map_err(|_| {
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
    /// # Errors
    ///
    /// Returns a [`CodecError`] if the scope or its `len` field is missing.
    pub fn begin_list(&mut self, tag: &str) -> Result<usize, CodecError> {
        self.begin(tag)?;
        Ok(self.u64("len")? as usize)
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

    /// The number of unread non-empty lines (0 when fully consumed).
    pub fn remaining(&self) -> usize {
        self.rest
            .split('\n')
            .filter(|l| !content(l).is_empty())
            .count()
    }

    /// Fails unless the whole stream has been consumed.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] naming the first trailing line.
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

    /// One of each scalar line at nesting `depth`, written by `w`, and the
    /// text the oracle renders for it.
    fn scalars_at_depth(w: &mut Writer, depth: usize, value: f64, n: u64) -> String {
        let mut expected = String::new();
        for level in 0..depth {
            w.begin("scope");
            expected += &oracle::line(level, &oracle::begin("scope"));
        }
        w.f64("x", value);
        w.u64("n", n);
        w.u64("max", u64::MAX);
        w.bool("yes", true);
        w.bool("no", false);
        w.str("name", "mcpat-calib");
        w.f64_seq("v", &[value, -value]);
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
            expected += &oracle::line(level, "}");
        }
        expected
    }

    fn assert_matches_oracle(value: f64, n: u64, depth: usize) {
        let mut w = Writer::new();
        let expected = scalars_at_depth(&mut w, depth, value, n);
        assert_eq!(w.finish(), expected, "bits {:016X}", value.to_bits());
    }

    #[test]
    fn edge_values_render_exactly_like_the_format_oracle() {
        for bits in EDGE_BITS {
            for depth in 0..=6 {
                assert_matches_oracle(f64::from_bits(bits), u64::MAX - bits, depth);
            }
        }
    }

    proptest! {
        #[test]
        fn arbitrary_values_render_exactly_like_the_format_oracle(
            bits in 0u64..u64::MAX,
            n in 0u64..u64::MAX,
            depth in 0usize..7,
        ) {
            let value = f64::from_bits(bits);
            let mut w = Writer::new();
            let expected = scalars_at_depth(&mut w, depth, value, n);
            prop_assert_eq!(w.finish(), expected);
        }
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

    #[test]
    fn reader_positions_survive_blank_lines_and_rewinds() {
        let text = "\n; header\nmodel {\n\n  n 7 ; seven\n  ; note\n  other {\n  }\n}\n\n";
        let mut r = Reader::new(text);
        assert_eq!((r.line(), r.remaining()), (0, 5));
        r.begin("model").unwrap();
        assert_eq!((r.line(), r.remaining()), (3, 4));
        assert_eq!(r.u64("n").unwrap(), 7);
        assert_eq!((r.line(), r.remaining()), (5, 3));
        // A mismatched try_begin rewinds past the comment line it skipped.
        assert!(!r.try_begin("audit").unwrap());
        assert_eq!((r.line(), r.remaining()), (5, 3));
        assert!(r.try_begin("other").unwrap());
        assert_eq!((r.line(), r.remaining()), (7, 2));
        r.end().unwrap();
        r.end().unwrap();
        assert_eq!((r.line(), r.remaining()), (9, 0));
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
        assert_eq!(r.remaining(), 0);
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
