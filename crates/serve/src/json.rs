//! Minimal JSON value model with a parser, a *compact* (single line)
//! writer sized for the newline-delimited wire protocol, and a *pretty*
//! writer for report files.
//!
//! The build environment is offline, so `serde_json` is unavailable; the
//! service instead parses requests into this small [`Value`] enum and writes
//! responses with [`Value::compact`], so that one response occupies exactly
//! one line.  The benchmark harness builds its report documents (the
//! `BENCH_*.json` baselines, figure and table dumps) from the same enum,
//! writes them with [`Value::pretty`] and reads them back with
//! [`Value::parse`].  Only the shapes these uses need are supported:
//! objects, arrays, strings, finite numbers, booleans and null.

use std::mem::MaybeUninit;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// A finite number (non-finite values serialise as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Convenience constructor for strings.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Convenience constructor for objects.
    pub fn obj(fields: Vec<(&str, Value)>) -> Value {
        Value::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Looks up a key in an object (first match); `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one (rejects fractions,
    /// negatives and numbers beyond exact f64 integer range).
    pub fn as_usize(&self) -> Option<usize> {
        let x = self.as_f64()?;
        if x >= 0.0 && x.fract() == 0.0 && x < 9.0e15 {
            Some(x as usize)
        } else {
            None
        }
    }

    /// The value as a `u64` (same constraints as [`Value::as_usize`]).
    pub fn as_u64(&self) -> Option<u64> {
        self.as_usize().map(|x| x as u64)
    }

    /// The value as an `i64`, if it is an integral number.
    pub fn as_i64(&self) -> Option<i64> {
        let x = self.as_f64()?;
        if x.fract() == 0.0 && x.abs() < 9.0e15 {
            Some(x as i64)
        } else {
            None
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Container nesting depth, as [`MAX_DEPTH`] counts it: 0 for a
    /// scalar, 1 for an array or object of scalars.
    pub(crate) fn depth(&self) -> usize {
        match self {
            Value::Arr(items) => 1 + items.iter().map(Value::depth).max().unwrap_or(0),
            Value::Obj(fields) => 1 + fields.iter().map(|(_, v)| v.depth()).max().unwrap_or(0),
            _ => 0,
        }
    }

    /// Parses a JSON document. The entire input must be consumed (trailing
    /// whitespace excepted).
    pub fn parse(input: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Writes the value as compact single-line JSON.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out);
        out
    }

    /// Writes the value as indented multi-line JSON: two spaces per level,
    /// `": "` after each key, one item or field per line, and `[]` / `{}`
    /// for empty containers.  Scalars print exactly as in
    /// [`Value::compact`].
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent + 1);
        match self {
            Value::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.push_str(&pad);
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&pad[2..]);
                out.push(']');
            }
            Value::Obj(fields) if !fields.is_empty() => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.push_str(&pad);
                    write_string(out, key);
                    out.push_str(": ");
                    value.write_pretty(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&pad[2..]);
                out.push('}');
            }
            // scalars and empty containers print as in the compact form
            _ => self.write_into(out),
        }
    }

    /// Appends the value as compact single-line JSON to `out`.  The direct
    /// writers below ([`write_f64`], [`write_u32`], [`write_string`]) produce
    /// byte-identical output for the corresponding scalar shapes, so hot
    /// paths can stream fields without building a `Value` tree first.
    pub fn write_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(x) => write_f64(out, *x),
            Value::Str(s) => write_string(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_into(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    v.write_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Appends a number exactly as [`Value::Num`] serialises it: integral finite
/// values inside exact-`i64` range print without a fraction, other finite
/// values use Rust's shortest round-trip `Display`, non-finite values become
/// `null`.  Shared by the tree writer and the direct response writer so the
/// two paths cannot drift.
pub fn write_f64(out: &mut String, x: f64) {
    use std::fmt::Write;
    if x.is_finite() {
        if x.fract() == 0.0 && x.abs() < 9.0e15 {
            let _ = write!(out, "{}", x as i64);
        } else {
            let _ = write!(out, "{x}");
        }
    } else {
        out.push_str("null");
    }
}

/// `DIGIT_PAIRS[2n..2n+2]` is the two-digit decimal rendering of `n`
/// (`00`–`99`): one table lookup per two digits instead of two divisions.
const DIGIT_PAIRS: [u8; 200] = {
    let mut d = [0u8; 200];
    let mut n = 0;
    while n < 100 {
        d[2 * n] = b'0' + (n / 10) as u8;
        d[2 * n + 1] = b'0' + (n % 10) as u8;
        n += 1;
    }
    d
};

/// Appends a `u32` in decimal without going through `f64` or `fmt`
/// machinery.  Produces the same digits as `write_f64(out, x as f64)` for
/// every `u32` (both print the exact integer), which keeps node ids
/// byte-identical to the `Value::Num(n as f64)` tree writer.  Whole
/// tables go through [`write_u32_array`]'s writer, which writes the same
/// digits.
#[inline]
pub fn write_u32(out: &mut String, x: u32) {
    let mut buf = [0u8; U32_ENTRY_BYTES];
    let n = put_digits(x, |i, digit| buf[i] = digit);
    // SAFETY: buf[..n] holds only ASCII digits, so appending the raw bytes
    // keeps the String valid UTF-8.
    unsafe { out.as_mut_vec() }.extend_from_slice(&buf[..n]);
}

/// Appends `[x0,x1,…]` for a `u32` slice.  The service's restoring walk
/// over a cached table feeds the same writer run by run: entries below 1000
/// are one four-byte copy each, larger ones go through the pair table.
pub fn write_u32_array(out: &mut String, xs: &[u32]) {
    let mut w = U32ArrayWriter::new(out);
    w.write(xs);
    w.finish();
}

/// `SMALL_U32[x]` is `x` in decimal followed by a comma, padded to four
/// bytes, for `x < 1000`: every node id of an allocation of up to 1000
/// nodes is one four-byte copy.
const SMALL_U32: [[u8; 4]; 1000] = {
    let mut t = [[0u8; 4]; 1000];
    let mut x = 0;
    while x < 1000 {
        let text = [
            b'0' + (x / 100) as u8,
            b'0' + (x / 10 % 10) as u8,
            b'0' + (x % 10) as u8,
            b',',
        ];
        // leading zeros dropped
        let skip = (x < 100) as usize + (x < 10) as usize;
        let mut i = 0;
        while i + skip < 4 {
            t[x][i] = text[i + skip];
            i += 1;
        }
        x += 1;
    }
    t
};

/// Most bytes one entry of [`U32ArrayWriter::write`] takes: the ten digits
/// of `u32::MAX` and a comma.
const U32_ENTRY_BYTES: usize = 11;

/// Entries [`U32ArrayWriter::write`] reserves room for at a time, so the
/// spare capacity it asks for beyond the text is at most
/// `U32_ENTRY_BYTES * U32_RESERVE_ENTRIES` bytes whatever the table's
/// length.
const U32_RESERVE_ENTRIES: usize = 512;

/// Streams a JSON array of `u32`s into a `String` slice by slice, so a
/// whole table or the runs of a restoring walk over a cached table go
/// through the same loop.  Digits equal [`write_u32`]'s.
pub(crate) struct U32ArrayWriter<'a> {
    /// The output's bytes; only ASCII is written to them.
    v: &'a mut Vec<u8>,
}

impl<'a> U32ArrayWriter<'a> {
    /// Appends `[`.
    pub(crate) fn new(out: &'a mut String) -> Self {
        // SAFETY: the writer appends only ASCII ('[', digits, ',' and
        // ']'), so the String stays valid UTF-8.
        let v = unsafe { out.as_mut_vec() };
        v.push(b'[');
        U32ArrayWriter { v }
    }

    /// Appends each entry of `xs` and its trailing comma.
    pub(crate) fn write(&mut self, xs: &[u32]) {
        for chunk in xs.chunks(U32_RESERVE_ENTRIES) {
            self.v.reserve(chunk.len() * U32_ENTRY_BYTES);
            let mut len = self.v.len();
            let base = self.v.as_mut_ptr();
            for &x in chunk {
                // SAFETY: the `reserve` above left U32_ENTRY_BYTES of spare
                // capacity past `len` for every entry of `chunk`, and each
                // entry stores at most U32_ENTRY_BYTES bytes at `len`, then
                // advances `len` by at most as many: so every store, and
                // the `[MaybeUninit<u8>; U32_ENTRY_BYTES]` view of the
                // spare bytes at `len` (which needs no initialised bytes),
                // stays inside that chunk's reservation.  All bytes are
                // ASCII, and `set_len` below covers only bytes written here.
                unsafe {
                    let dst = base.add(len);
                    if x < 1000 {
                        // one fixed four-byte store; the length keeps the
                        // digits and the comma
                        std::ptr::copy_nonoverlapping(SMALL_U32[x as usize].as_ptr(), dst, 4);
                        len += 2 + (x >= 10) as usize + (x >= 100) as usize;
                    } else {
                        len += large_u32_entry(
                            &mut *dst.cast::<[MaybeUninit<u8>; U32_ENTRY_BYTES]>(),
                            x,
                        );
                    }
                }
            }
            // SAFETY: `len` counts only the entries just written, all
            // inside the reservation (see above).
            unsafe { self.v.set_len(len) };
        }
    }

    /// Closes the array: the last entry's comma becomes `]`.
    pub(crate) fn finish(self) {
        match self.v.last_mut() {
            Some(last @ b',') => *last = b']',
            _ => self.v.push(b']'),
        }
    }
}

/// Writes the digits of an entry of 1000 or more and its comma at the
/// start of `entry`, straight into the output's spare capacity (digits
/// assembled in a buffer and copied out read 2.5x slower per id), and
/// returns their length.  Out of line, so the loop over small ids stays
/// tight.
#[cold]
#[inline(never)]
fn large_u32_entry(entry: &mut [MaybeUninit<u8>; U32_ENTRY_BYTES], x: u32) -> usize {
    let n = put_digits(x, |i, digit| {
        entry[i].write(digit);
    });
    entry[n].write(b',');
    n + 1
}

/// Hands the decimal digits of `x` to `put(index, digit)`, index 0 the
/// most significant, with the pair table; returns how many there are.
#[inline]
fn put_digits(mut x: u32, mut put: impl FnMut(usize, u8)) -> usize {
    const POWERS: [u32; 9] = [
        10,
        100,
        1_000,
        10_000,
        100_000,
        1_000_000,
        10_000_000,
        100_000_000,
        1_000_000_000,
    ];
    let digits = 1 + POWERS.iter().filter(|&&p| x >= p).count();
    let mut i = digits;
    while x >= 100 {
        let pair = (x % 100) as usize * 2;
        x /= 100;
        i -= 2;
        put(i, DIGIT_PAIRS[pair]);
        put(i + 1, DIGIT_PAIRS[pair + 1]);
    }
    if x >= 10 {
        put(0, DIGIT_PAIRS[2 * x as usize]);
        put(1, DIGIT_PAIRS[2 * x as usize + 1]);
    } else {
        put(0, b'0' + x as u8);
    }
    digits
}

/// Appends a JSON string literal (quotes included), escaping exactly as the
/// tree writer does.
pub fn write_string(out: &mut String, s: &str) {
    out.push('"');
    // fast path for strings that need no escaping (ids, algorithm names,
    // base64 node tables — i.e. nearly everything the service writes)
    if s.bytes().all(|b| b >= 0x20 && b != b'"' && b != b'\\') {
        out.push_str(s);
        out.push('"');
        return;
    }
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Compact node-table codec
// ---------------------------------------------------------------------------
//
// The verbose wire form of a node table is a JSON array of integers — ~4
// bytes and one `f64` boxing per entry, which dominates the cache-hit path
// for paper-sized tables (4800 entries ≈ 19 KB of JSON).  The compact form
// (`"encoding":"compact"`) instead carries the table as one base64 string:
//
//   varint(len) · zigzag-varint(nodes[0] - 0) · zigzag-varint(nodes[1] -
//   nodes[0]) · …  → standard base64 (padded)
//
// Node tables are runs of equal or adjacent node ids, so the deltas are tiny
// and almost every entry costs one byte before base64.  The codec is
// self-delimiting (leading length) and rejects trailing garbage, so
// `decode_nodes_compact(encode_nodes_compact(t)) == t` exactly.

const BASE64_ALPHABET: &[u8; 64] =
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Maximum number of table entries [`decode_nodes_compact`] accepts; caps
/// the memory one hostile compact string can make the decoder allocate
/// (2^28 entries would already be a 1 GiB table — far beyond any grid the
/// engine serves).
pub const MAX_COMPACT_ENTRIES: usize = 1 << 28;

/// `BASE64_VALUES[c]` is the 6-bit value of base64 symbol `c`, or
/// [`NOT_BASE64`] for a byte outside the alphabet (`=` included).
const BASE64_VALUES: [u8; 256] = {
    let mut values = [NOT_BASE64; 256];
    let mut i = 0;
    while i < 64 {
        values[BASE64_ALPHABET[i] as usize] = i as u8;
        i += 1;
    }
    values
};

/// The [`BASE64_VALUES`] entry of a byte outside the alphabet; its top bit
/// is set, which no 6-bit value has, so one `or` over a group's four
/// lookups tests all of them.
const NOT_BASE64: u8 = 0xff;

/// Standard base64 (RFC 4648 alphabet, `=` padding) of arbitrary bytes.
/// Used by the compact node-table codec and by the warm-handoff admin
/// response, which ships a whole persistence log inside one JSON string.
pub fn base64_encode(bytes: &[u8]) -> String {
    let mut out = String::new();
    base64_encode_into(&mut out, bytes);
    out
}

/// Appends the [`base64_encode`] of `bytes` to `out`.
pub(crate) fn base64_encode_into(out: &mut String, bytes: &[u8]) {
    // SAFETY: base64_into appends only BASE64_ALPHABET symbols and `=`,
    // all ASCII, so the String stays valid UTF-8.
    base64_into(unsafe { out.as_mut_vec() }, bytes);
}

/// Appends the base64 of `bytes` to `v`: the output is sized once, then
/// filled a whole 3-byte group (4 symbols) at a time.
fn base64_into(v: &mut Vec<u8>, bytes: &[u8]) {
    let symbol = |n: u32, shift: u32| BASE64_ALPHABET[(n >> shift) as usize & 63];
    let start = v.len();
    v.resize(start + bytes.len().div_ceil(3) * 4, b'=');
    let groups = bytes.chunks_exact(3);
    let tail = groups.remainder();
    let mut dst = v[start..].chunks_exact_mut(4);
    for (g, d) in groups.zip(&mut dst) {
        let n = (g[0] as u32) << 16 | (g[1] as u32) << 8 | g[2] as u32;
        d.copy_from_slice(&[symbol(n, 18), symbol(n, 12), symbol(n, 6), symbol(n, 0)]);
    }
    if let Some(d) = dst.next() {
        // a 1- or 2-byte tail; the `=` padding is already in place
        let n = (tail[0] as u32) << 16 | (*tail.get(1).unwrap_or(&0) as u32) << 8;
        d[0] = symbol(n, 18);
        d[1] = symbol(n, 12);
        if tail.len() == 2 {
            d[2] = symbol(n, 6);
        }
    }
}

/// Decodes [`base64_encode`] output.  Strict, so that every accepted
/// string is the encoding of exactly the bytes it decodes to: the length
/// must be a multiple of four, padding may only close the last group, and
/// the bits a padded group leaves unused must be zero.
pub fn base64_decode(s: &str) -> Result<Vec<u8>, String> {
    let bytes = s.as_bytes();
    if !bytes.len().is_multiple_of(4) {
        return Err(format!(
            "base64 length {} is not a multiple of 4",
            bytes.len()
        ));
    }
    let mut out = Vec::with_capacity(bytes.len() / 4 * 3);
    let Some(body_len) = bytes.len().checked_sub(4) else {
        return Ok(out);
    };
    let (body, last) = bytes.split_at(body_len);
    let sextets = |group: &[u8]| {
        let v = [0, 1, 2, 3].map(|i| BASE64_VALUES[group[i] as usize]);
        if (v[0] | v[1] | v[2] | v[3]) & 0x80 != 0 {
            return Err(invalid_symbol(group));
        }
        Ok((v[0] as u32) << 18 | (v[1] as u32) << 12 | (v[2] as u32) << 6 | v[3] as u32)
    };
    for group in body.chunks_exact(4) {
        let n = sextets(group)?;
        out.extend_from_slice(&[(n >> 16) as u8, (n >> 8) as u8, n as u8]);
    }
    let pad = last.iter().rev().take_while(|&&c| c == b'=').count();
    if pad > 2 {
        return Err("misplaced base64 padding".to_string());
    }
    // the padding stands for zero-valued symbols
    let mut group = [b'A'; 4];
    group[..4 - pad].copy_from_slice(&last[..4 - pad]);
    let n = sextets(&group)?;
    let kept = 3 - pad;
    if n & ((1 << (8 * pad)) - 1) != 0 {
        return Err("non-zero bits in base64 padding".to_string());
    }
    out.extend_from_slice(&[(n >> 16) as u8, (n >> 8) as u8, n as u8][..kept]);
    Ok(out)
}

/// The error for a base64 group holding a byte outside the alphabet.
#[cold]
fn invalid_symbol(group: &[u8]) -> String {
    match group
        .iter()
        .find(|&&c| BASE64_VALUES[c as usize] == NOT_BASE64)
    {
        Some(b'=') => "misplaced base64 padding".to_string(),
        Some(&c) => format!("invalid base64 character {:?}", c as char),
        None => unreachable!("invalid_symbol called on a valid group"),
    }
}

/// Reads one varint at `pos`.  Rejects an overlong varint (a final byte
/// of zero after a continuation byte), so each value has exactly one
/// accepted encoding.
#[inline]
fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, String> {
    if let Some(&byte) = bytes.get(*pos).filter(|&&b| b < 0x80) {
        *pos += 1;
        return Ok(byte as u64);
    }
    let mut x = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = bytes
            .get(*pos)
            .ok_or("truncated varint in compact node table")?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return Err("varint overflows 64 bits".to_string());
        }
        x |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            if byte == 0 && shift > 0 {
                return Err("overlong varint in compact node table".to_string());
            }
            return Ok(x);
        }
        shift += 7;
        if shift > 63 {
            return Err("varint longer than 10 bytes".to_string());
        }
    }
}

fn zigzag(x: i64) -> u64 {
    ((x << 1) ^ (x >> 63)) as u64
}

fn unzigzag(x: u64) -> i64 {
    ((x >> 1) as i64) ^ -((x & 1) as i64)
}

/// Encodes a node table in the compact wire form: base64 over
/// `varint(len)` followed by one zigzag varint per entry holding the delta
/// to the previous entry (the first delta is against 0).  The service
/// streams permuted tables through the same encoder run by run, so this is
/// the whole table fed to it as one slice.
pub fn encode_nodes_compact(nodes: &[u32]) -> String {
    let mut out = String::new();
    let mut enc = CompactEncoder::new(&mut out, nodes.len());
    enc.write(nodes);
    enc.finish();
    out
}

/// Streams the [`encode_nodes_compact`] form of a table into a `String`
/// slice by slice, without building the varint bytes or the base64 string
/// first: each varint byte shifts into a 3-byte carry, and every third
/// byte writes its group's four base64 symbols.  Three one-byte varints
/// that start a group skip the carry and are written as one group.
pub(crate) struct CompactEncoder<'a> {
    /// The output's bytes; only base64 symbols and `=` are written.
    out: &'a mut Vec<u8>,
    /// The bytes of the open group, most significant first.
    carry: u32,
    /// How many bytes `carry` holds: 0, 1 or 2.
    carried: u32,
    prev: u32,
}

impl<'a> CompactEncoder<'a> {
    /// Starts a table of `len` entries, reserving about one base64 symbol
    /// and a third per entry (a one-byte varint each).
    pub(crate) fn new(out: &'a mut String, len: usize) -> Self {
        // SAFETY: the encoder appends only base64 symbols and `=` (ASCII),
        // so the String stays valid UTF-8.
        let out = unsafe { out.as_mut_vec() };
        out.reserve((len + 10).div_ceil(3) * 4);
        let mut enc = CompactEncoder {
            out,
            carry: 0,
            carried: 0,
            prev: 0,
        };
        enc.varint(len as u64);
        enc
    }

    /// Appends the next entries.
    pub(crate) fn write(&mut self, nodes: &[u32]) {
        let mut rest = nodes;
        loop {
            // fast path: with no byte carried, three deltas whose zigzag
            // varints are one byte each are a whole 24-bit group
            if self.carried == 0 {
                while let [a, b, c, tail @ ..] = rest {
                    let (da, db, dc) = (
                        zigzag(*a as i64 - self.prev as i64),
                        zigzag(*b as i64 - *a as i64),
                        zigzag(*c as i64 - *b as i64),
                    );
                    if (da | db | dc) >= 0x80 {
                        break;
                    }
                    self.group((da << 16 | db << 8 | dc) as u32);
                    self.prev = *c;
                    rest = tail;
                }
            }
            let Some((&n, tail)) = rest.split_first() else {
                return;
            };
            let delta = zigzag(n as i64 - self.prev as i64);
            self.prev = n;
            self.varint(delta);
            rest = tail;
        }
    }

    #[inline]
    fn varint(&mut self, mut x: u64) {
        while x >= 0x80 {
            self.byte((x & 0x7f) as u8 | 0x80);
            x >>= 7;
        }
        self.byte(x as u8);
    }

    #[inline]
    fn byte(&mut self, b: u8) {
        self.carry = self.carry << 8 | b as u32;
        self.carried += 1;
        if self.carried == 3 {
            self.group(self.carry);
            self.carry = 0;
            self.carried = 0;
        }
    }

    /// Writes the four base64 symbols of the 24-bit group `n`.
    #[inline]
    fn group(&mut self, n: u32) {
        let symbol = |shift: u32| BASE64_ALPHABET[(n >> shift) as usize & 63];
        self.out
            .extend_from_slice(&[symbol(18), symbol(12), symbol(6), symbol(0)]);
    }

    /// Writes the open group, padded.
    pub(crate) fn finish(self) {
        let tail = self.carry.to_be_bytes();
        base64_into(self.out, &tail[4 - self.carried as usize..]);
    }
}

/// Decodes the compact wire form back into the node table.  Strict inverse
/// of [`encode_nodes_compact`]: every string it accepts re-encodes to
/// itself.  Rejects bad or non-canonical base64, truncated, overlong or
/// trailing payload bytes, deltas that leave `u32` range, and length
/// prefixes beyond [`MAX_COMPACT_ENTRIES`].
pub fn decode_nodes_compact(s: &str) -> Result<Vec<u32>, String> {
    let bytes = base64_decode(s)?;
    let mut pos = 0usize;
    let len = read_varint(&bytes, &mut pos)?;
    if len > MAX_COMPACT_ENTRIES as u64 {
        return Err(format!(
            "compact node table declares {len} entries (limit {MAX_COMPACT_ENTRIES})"
        ));
    }
    // every entry costs at least one payload byte, so a length prefix
    // larger than the remaining payload is a lie — reject it before
    // allocating entry-count-proportional memory
    if len as usize > bytes.len() - pos {
        return Err(format!(
            "compact node table declares {len} entries but carries {} bytes",
            bytes.len() - pos
        ));
    }
    let mut nodes = Vec::with_capacity(len as usize);
    let mut prev = 0u32;
    for _ in 0..len {
        let delta = unzigzag(read_varint(&bytes, &mut pos)?);
        let value = prev as i128 + delta as i128;
        prev = u32::try_from(value)
            .map_err(|_| format!("compact node table entry {value} outside u32"))?;
        nodes.push(prev);
    }
    if pos != bytes.len() {
        return Err(format!(
            "trailing bytes after compact node table ({} of {})",
            pos,
            bytes.len()
        ));
    }
    Ok(nodes)
}

/// Maximum container nesting the parser accepts.  The parser is recursive,
/// so unbounded nesting would let one hostile request line overflow the
/// connection thread's stack and abort the whole process; the protocol
/// needs two levels (`batch` of objects of arrays of arrays).
pub(crate) const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} levels"));
        }
        self.depth += 1;
        let result = parse(self);
        self.depth -= 1;
        result
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // copy the run up to the next quote or backslash as one slice:
            // both are ASCII, so the run ends on a char boundary of the
            // `&str` input and each byte is scanned and validated once
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            let text = &self.bytes[self.pos..self.pos + run];
            out.push_str(std::str::from_utf8(text).map_err(|e| e.to_string())?);
            self.pos += run + 1;
            if self.bytes[self.pos - 1] == b'"' {
                return Ok(out);
            }
            let esc = self.peek().ok_or("unterminated escape")?;
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => {
                    let hex = self
                        .bytes
                        .get(self.pos..self.pos + 4)
                        .ok_or("truncated \\u escape")?;
                    let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                    let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                    self.pos += 4;
                    // surrogate pairs are not needed by the protocol;
                    // lone surrogates map to the replacement char
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                }
                other => return Err(format!("invalid escape '\\{}'", other as char)),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|e| format!("invalid number {text:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Value::parse("null").unwrap(), Value::Null);
        assert_eq!(Value::parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(Value::parse("false").unwrap(), Value::Bool(false));
        assert_eq!(Value::parse("42").unwrap(), Value::Num(42.0));
        assert_eq!(Value::parse("-1.5e2").unwrap(), Value::Num(-150.0));
        assert_eq!(Value::parse("\"hi\"").unwrap(), Value::str("hi"));
    }

    #[test]
    fn parses_nested_structures() {
        let v = Value::parse(r#"{"a":[1,2,{"b":null}],"c":"x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(Value::as_str), Some("x"));
        let arr = v.get("a").and_then(Value::as_arr).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[0].as_usize(), Some(1));
        assert_eq!(arr[2].get("b"), Some(&Value::Null));
    }

    #[test]
    fn parses_string_escapes() {
        let v = Value::parse(r#""a\"b\nA\\""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\nA\\"));
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // ~1 MiB of long ASCII runs, every escape, and 2-, 3- and 4-byte
        // UTF-8: a scan that re-validates the rest of the input per
        // character takes ~30 s on this in a debug build (2-core Xeon VM),
        // a linear one ~10 ms
        let pieces = [
            (r#"\""#, "\""),
            (r"\\", "\\"),
            (r"\/", "/"),
            (r"\b", "\u{8}"),
            (r"\f", "\u{c}"),
            (r"\n", "\n"),
            (r"\r", "\r"),
            (r"\t", "\t"),
            (r"\u00e9", "é"),
            ("é€𝄞", "é€𝄞"),
        ];
        let run = "stencil-".repeat(64);
        let (mut json, mut want) = (String::from("\""), String::new());
        for (escaped, decoded) in pieces.iter().cycle() {
            if json.len() >= 1 << 20 {
                break;
            }
            json.push_str(&run);
            json.push_str(escaped);
            want.push_str(&run);
            want.push_str(decoded);
        }
        json.push('"');
        let start = std::time::Instant::now();
        let v = Value::parse(&json).unwrap();
        let took = start.elapsed();
        assert_eq!(v.as_str(), Some(want.as_str()));
        assert!(
            took < std::time::Duration::from_secs(5),
            "a {} byte string took {took:?} to parse",
            json.len()
        );
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Value::parse("").is_err());
        assert!(Value::parse("{").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("{\"a\" 1}").is_err());
        assert!(Value::parse("1 2").is_err());
        assert!(Value::parse("\"unterminated").is_err());
        assert!(Value::parse("tru").is_err());
    }

    #[test]
    fn rejects_hostile_nesting_without_overflowing() {
        // one line of 100k open brackets must error, not blow the stack
        let hostile = "[".repeat(100_000);
        let err = Value::parse(&hostile).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        // ... while legitimate nesting well past the protocol's needs parses
        let deep = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(Value::parse(&deep).is_ok());
    }

    #[test]
    fn compact_roundtrips() {
        let original = r#"{"id":7,"dims":[12,8],"ok":true,"note":"a b","x":null,"f":1.25}"#;
        let v = Value::parse(original).unwrap();
        assert_eq!(v.compact(), original);
        assert_eq!(Value::parse(&v.compact()).unwrap(), v);
    }

    #[test]
    fn compact_is_single_line_and_escaped() {
        let v = Value::obj(vec![("s", Value::str("line1\nline2\t\"q\""))]);
        let text = v.compact();
        assert!(!text.contains('\n'));
        assert_eq!(Value::parse(&text).unwrap(), v);
    }

    #[test]
    fn pretty_prints_and_escapes() {
        let doc = Value::obj(vec![
            ("name", Value::str("a\"b")),
            ("n", Value::Num(3.0)),
            (
                "xs",
                Value::Arr(vec![Value::Num(1.5), Value::Bool(true), Value::Null]),
            ),
            ("empty", Value::Arr(vec![])),
        ]);
        let text = doc.pretty();
        assert!(text.contains("\"name\": \"a\\\"b\""));
        assert!(text.contains("\"n\": 3"));
        assert!(text.contains("1.5"));
        assert!(text.contains("\"empty\": []"));
        assert!(text.starts_with("{\n"));
        assert!(text.ends_with('}'));
        assert_eq!(Value::parse(&text).unwrap(), doc);
    }

    #[test]
    fn pretty_nan_becomes_null() {
        assert_eq!(Value::Num(f64::NAN).pretty(), "null");
    }

    #[test]
    fn pretty_object_keys_are_escaped_like_values() {
        let doc = Value::Obj(vec![("a\"\n\u{1b}b".to_string(), Value::Num(1.0))]);
        let text = doc.pretty();
        assert!(text.contains("\"a\\\"\\n\\u001bb\": 1"), "{text}");
    }

    #[test]
    fn pretty_layout_indents_nested_containers() {
        let doc = Value::obj(vec![
            ("a", Value::Arr(vec![Value::Num(1.0), Value::obj(vec![])])),
            ("b", Value::obj(vec![("c", Value::Null)])),
        ]);
        assert_eq!(
            doc.pretty(),
            "{\n  \"a\": [\n    1,\n    {}\n  ],\n  \"b\": {\n    \"c\": null\n  }\n}"
        );
    }

    #[test]
    fn compact_codec_roundtrips_known_tables() {
        for table in [
            vec![],
            vec![0u32],
            vec![0, 0, 0, 1, 1, 1, 2, 2, 2],
            vec![7, 3, 3, 0, u32::MAX, u32::MAX - 1, 0],
            (0..4800).map(|x| x / 48).collect::<Vec<u32>>(),
        ] {
            let encoded = encode_nodes_compact(&table);
            assert_eq!(decode_nodes_compact(&encoded).unwrap(), table, "{encoded}");
        }
    }

    #[test]
    fn compact_codec_is_dense_for_run_structured_tables() {
        // 4800 entries in 100 runs of 48: ~1 byte per entry before base64
        let table: Vec<u32> = (0..4800).map(|x| x / 48).collect();
        let encoded = encode_nodes_compact(&table);
        assert!(
            encoded.len() < 7000,
            "compact form is {} bytes",
            encoded.len()
        );
    }

    #[test]
    fn compact_decoder_rejects_malformed_payloads() {
        for (input, needle) in [
            ("%%%%", "invalid base64"),
            ("AAA", "multiple of 4"),
            ("A=AA", "padding"),
            ("====", "padding"),
            // varint(2 entries) but only one delta byte present
            (base64_encode(&[2, 2]).as_str(), "carries"),
            // length fits the byte count, but the delta varint is cut off
            (base64_encode(&[1, 0x80]).as_str(), "truncated"),
            // 11-byte varint
            (
                base64_encode(&[
                    0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 1,
                ])
                .as_str(),
                "varint",
            ),
            // declares an absurd entry count
            (
                base64_encode(&{
                    let mut b = Vec::new();
                    push_varint(&mut b, u64::MAX / 2);
                    b
                })
                .as_str(),
                "limit",
            ),
            // declares far more entries than it carries bytes: must be
            // rejected before any entry-count-proportional allocation
            (
                base64_encode(&{
                    let mut b = Vec::new();
                    push_varint(&mut b, (MAX_COMPACT_ENTRIES - 1) as u64);
                    b
                })
                .as_str(),
                "carries",
            ),
            // delta walks below zero
            (
                base64_encode(&{
                    let mut b = Vec::new();
                    push_varint(&mut b, 1);
                    push_varint(&mut b, zigzag(-1));
                    b
                })
                .as_str(),
                "outside u32",
            ),
            // trailing bytes after the declared entries
            (
                base64_encode(&{
                    let mut b = Vec::new();
                    push_varint(&mut b, 1);
                    push_varint(&mut b, zigzag(5));
                    b.push(0);
                    b
                })
                .as_str(),
                "trailing",
            ),
        ] {
            let err = decode_nodes_compact(input).unwrap_err();
            assert!(err.contains(needle), "{input:?}: {err}");
        }
    }

    #[test]
    fn compact_decoder_rejects_non_canonical_strings() {
        // both decode to the table [0] under a lenient decoder, like "AQA="
        assert_eq!(decode_nodes_compact("AQA=").unwrap(), vec![0]);
        let overlong = decode_nodes_compact("AYAA").unwrap_err();
        assert!(overlong.contains("overlong"), "{overlong}");
        let padding = decode_nodes_compact("AQB=").unwrap_err();
        assert!(padding.contains("padding"), "{padding}");
        assert!(
            base64_decode("Zh==").is_err(),
            "\"Zg==\" is the canonical form"
        );
        assert!(
            base64_decode("Zm9=").is_err(),
            "\"Zm8=\" is the canonical form"
        );
    }

    fn push_varint(out: &mut Vec<u8>, mut x: u64) {
        loop {
            let byte = (x & 0x7f) as u8;
            x >>= 7;
            if x == 0 {
                out.push(byte);
                return;
            }
            out.push(byte | 0x80);
        }
    }

    /// The encoder as it stood before the table-driven rewrite: one `char`
    /// push per base64 symbol, one loop turn per varint byte.  The property
    /// below holds today's encoder to its bytes.
    fn reference_encode_nodes_compact(nodes: &[u32]) -> String {
        let mut bytes = Vec::new();
        push_varint(&mut bytes, nodes.len() as u64);
        let mut prev = 0i64;
        for &n in nodes {
            push_varint(&mut bytes, zigzag(n as i64 - prev));
            prev = n as i64;
        }
        let mut out = String::new();
        for chunk in bytes.chunks(3) {
            let b = [
                chunk[0],
                chunk.get(1).copied().unwrap_or(0),
                chunk.get(2).copied().unwrap_or(0),
            ];
            let n = ((b[0] as u32) << 16) | ((b[1] as u32) << 8) | b[2] as u32;
            out.push(BASE64_ALPHABET[(n >> 18) as usize & 63] as char);
            out.push(BASE64_ALPHABET[(n >> 12) as usize & 63] as char);
            out.push(if chunk.len() > 1 {
                BASE64_ALPHABET[(n >> 6) as usize & 63] as char
            } else {
                '='
            });
            out.push(if chunk.len() > 2 {
                BASE64_ALPHABET[n as usize & 63] as char
            } else {
                '='
            });
        }
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The encoder's bytes equal the reference encoder's, for run-like
        /// tables (small deltas), arbitrary ones (deltas up to ±2^32) and
        /// ones drawn from deltas at the one-byte varint boundary (−65,
        /// −64, 63, 64) mixed with two- and three-byte ones that shift the
        /// group alignment mid-table, of 0–20000 entries (often under 12,
        /// so every length mod 3 is common), fed whole and in random slice
        /// splits, and decode back to the table.
        #[test]
        fn compact_encoder_matches_the_reference_encoder(
            len in 0usize..20_001,
            short in proptest::bool::ANY,
            run in 1usize..200,
            kind in 0u8..3,
            seed in 0u64..u64::MAX,
            cuts in proptest::collection::vec(0usize..20_001, 0..12),
        ) {
            const BOUNDARY_DELTAS: [i64; 10] = [-65, -64, 63, 64, 0, 1, -1, 300, -9000, 70_000];
            let len = if short { len % 12 } else { len };
            let mut x = seed;
            let mut node = 1_000_000i64;
            let table: Vec<u32> = (0..len)
                .map(|i| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    match kind {
                        0 => (i / run) as u32,
                        1 => (x >> 32) as u32,
                        _ => {
                            node += BOUNDARY_DELTAS[(x >> 33) as usize % BOUNDARY_DELTAS.len()];
                            node as u32
                        }
                    }
                })
                .collect();
            let encoded = encode_nodes_compact(&table);
            proptest::prop_assert_eq!(&encoded, &reference_encode_nodes_compact(&table));
            proptest::prop_assert_eq!(&decode_nodes_compact(&encoded).unwrap(), &table);
            // streamed behind other output in random slices, as the
            // service writes a restored table's runs
            let mut ends: Vec<usize> = cuts.iter().map(|&c| c % (len + 1)).collect();
            ends.push(len);
            ends.sort_unstable();
            let mut out = String::from("{\"nodes\":\"");
            let mut enc = CompactEncoder::new(&mut out, table.len());
            let mut start = 0;
            for end in ends {
                enc.write(&table[start..end]);
                start = end;
            }
            enc.finish();
            let streamed = out.strip_prefix("{\"nodes\":\"").unwrap();
            proptest::prop_assert_eq!(streamed, encoded.as_str());
            proptest::prop_assert_eq!(decode_nodes_compact(streamed).unwrap(), table);
        }

        /// Every string the decoder accepts re-encodes to itself: payloads
        /// of arbitrary bytes (overlong, truncated and out-of-range varints
        /// included) under valid base64, and arbitrary symbol strings.
        #[test]
        fn every_accepted_compact_string_reencodes_to_itself(
            payload in proptest::collection::vec(0u8..=255, 0..24),
            varints in proptest::bool::ANY,
            symbols in proptest::collection::vec(0usize..66, 0..17),
            pad in 0usize..3,
        ) {
            // drawn from a palette of varint bytes behind a length prefix
            // that counts the varints, most payloads decode to the end, and
            // overlong varints (a continuation byte, then 0) are common
            let payload: Vec<u8> = if varints {
                let body: Vec<u8> = payload
                    .iter()
                    .map(|b| [0, 1, 2, 0x7f, 0x80, 0x81, 0xff, 0][*b as usize % 8])
                    .collect();
                let count = body.iter().filter(|&&b| b < 0x80).count() as u8;
                std::iter::once(count).chain(body).collect()
            } else {
                payload
            };
            let alphabet: Vec<char> = (BASE64_ALPHABET.iter().map(|&c| c as char))
                .chain(['=', '%'])
                .collect();
            let arbitrary: String = symbols.iter().map(|&i| alphabet[i]).collect();
            // whole groups of alphabet symbols with the last `pad` replaced
            // by `=`: the unused bits under the padding are often non-zero
            let mut padded: Vec<char> = symbols.iter().map(|&i| alphabet[i % 64]).collect();
            padded.truncate(padded.len() / 4 * 4);
            let len = padded.len();
            padded[len.saturating_sub(pad)..].fill('=');
            for input in [base64_encode(&payload), arbitrary, padded.into_iter().collect()] {
                if let Ok(table) = decode_nodes_compact(&input) {
                    proptest::prop_assert_eq!(encode_nodes_compact(&table), input);
                }
                if let Ok(bytes) = base64_decode(&input) {
                    proptest::prop_assert_eq!(base64_encode(&bytes), input);
                }
            }
        }
    }

    #[test]
    fn base64_roundtrips_all_lengths() {
        for len in 0..10usize {
            let bytes: Vec<u8> = (0..len as u8)
                .map(|b| b.wrapping_mul(37).wrapping_add(11))
                .collect();
            let encoded = base64_encode(&bytes);
            assert_eq!(base64_decode(&encoded).unwrap(), bytes);
        }
        assert_eq!(base64_encode(b"foob"), "Zm9vYg==");
        assert_eq!(base64_decode("Zm9vYmFy").unwrap(), b"foobar");
    }

    #[test]
    fn direct_writers_match_the_tree_writer_byte_for_byte() {
        for x in [
            0.0,
            -0.0,
            1.0,
            -1.0,
            4800.0,
            1.25,
            -3.5e-7,
            8.999e15,
            9.1e15,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ] {
            let mut direct = String::new();
            write_f64(&mut direct, x);
            assert_eq!(direct, Value::Num(x).compact(), "f64 {x}");
        }
        for n in [0u32, 1, 9, 10, 47, 4799, 99_999, u32::MAX] {
            let mut direct = String::new();
            write_u32(&mut direct, n);
            assert_eq!(direct, Value::Num(n as f64).compact(), "u32 {n}");
        }
        for s in ["", "viem", "a b", "line1\nline2\t\"q\"\\", "\u{1}\u{1f}é"] {
            let mut direct = String::new();
            write_string(&mut direct, s);
            assert_eq!(direct, Value::str(s).compact(), "str {s:?}");
        }
    }

    #[test]
    fn digit_writer_matches_write_u32_in_every_digit_class() {
        // both sides of every power of ten, and the widest id
        let values: Vec<u32> = (0..10)
            .flat_map(|k| [10u32.pow(k) - 1, 10u32.pow(k)])
            .chain([4799, u32::MAX])
            .collect();
        for &x in &values {
            let mut one = String::new();
            write_u32(&mut one, x);
            let mut array = String::new();
            write_u32_array(&mut array, &[x]);
            assert_eq!(array, format!("[{one}]"), "u32 {x}");
        }
        let mut all = String::from("x");
        write_u32_array(&mut all, &values);
        let want = Value::Arr(values.iter().map(|&x| Value::Num(x as f64)).collect());
        assert_eq!(all, format!("x{}", want.compact()));
        let mut empty = String::from("x");
        write_u32_array(&mut empty, &[]);
        assert_eq!(empty, "x[]");
    }

    #[test]
    fn digit_writer_grows_past_its_reservation() {
        // 10 000 entries of every width, fed in slices of 0 to 1 500
        // entries: each slice, and each reservation-sized chunk of a
        // longer one, must reserve before it stores
        let table: Vec<u32> = (0..10_000u32)
            .map(|i| i.wrapping_mul(2_654_435_761) >> (i % 32))
            .collect();
        let mut out = String::new();
        let mut w = U32ArrayWriter::new(&mut out);
        let mut rest = &table[..];
        for n in (0..).map(|i: usize| i * 337 % 1_501) {
            let (slice, tail) = rest.split_at(n.min(rest.len()));
            w.write(slice);
            rest = tail;
            if rest.is_empty() {
                break;
            }
        }
        w.finish();
        let want = Value::Arr(table.iter().map(|&x| Value::Num(x as f64)).collect());
        assert_eq!(out, want.compact());
    }

    #[test]
    fn numeric_accessors_validate() {
        assert_eq!(Value::Num(3.5).as_usize(), None);
        assert_eq!(Value::Num(-1.0).as_usize(), None);
        assert_eq!(Value::Num(7.0).as_u64(), Some(7));
        assert_eq!(Value::Num(-7.0).as_i64(), Some(-7));
        assert_eq!(Value::Bool(true).as_f64(), None);
    }
}
