//! Strings built with one allocation.
//!
//! A HILTI `string` is an `Rc<str>`. Building one in a `String` and then
//! converting it costs two allocations: the `String`'s buffer, and the
//! `Rc` its bytes are copied into. [`StrBuf`] collects the pieces in a
//! buffer on the stack instead and copies them into the `Rc` once, so a
//! string of up to [`INLINE`] bytes costs exactly one allocation and
//! nothing is retained between builds. A longer one spills into a `String`
//! and costs what it did before.

use std::fmt;
use std::mem::MaybeUninit;
use std::rc::Rc;

/// Bytes a [`StrBuf`] holds on the stack before it spills to the heap.
pub const INLINE: usize = 256;

/// A string under construction; [`StrBuf::finish`] makes the `Rc<str>`.
pub struct StrBuf {
    len: usize,
    /// `inline[..len]` is initialized and holds whole `str`s, so it is
    /// UTF-8; nothing past `len` is ever read, so nothing is zeroed.
    inline: [MaybeUninit<u8>; INLINE],
    /// Everything so far, once it outgrew `inline`; empty and unallocated
    /// until then.
    spill: String,
}

impl StrBuf {
    #[inline]
    pub fn new() -> StrBuf {
        StrBuf {
            len: 0,
            inline: [MaybeUninit::uninit(); INLINE],
            spill: String::new(),
        }
    }

    /// A buffer for about `n` bytes: one longer than [`INLINE`] starts on
    /// the heap, so it is not copied there halfway.
    #[inline]
    pub fn with_capacity(n: usize) -> StrBuf {
        let mut b = StrBuf::new();
        if n > INLINE {
            b.spill = String::with_capacity(n);
        }
        b
    }

    #[inline]
    fn spilled(&self) -> bool {
        self.spill.capacity() > 0
    }

    #[inline]
    pub fn push_str(&mut self, s: &str) {
        if self.spilled() {
            self.spill.push_str(s);
        } else if self.len + s.len() <= INLINE {
            self.inline[self.len..self.len + s.len()].write_copy_of_slice(s.as_bytes());
            self.len += s.len();
        } else {
            // Room to grow, so later pieces append without reallocating.
            let mut spill = String::with_capacity(2 * (self.len + s.len()));
            spill.push_str(self.as_str());
            spill.push_str(s);
            self.spill = spill;
        }
    }

    #[inline]
    pub fn push(&mut self, c: char) {
        self.push_str(c.encode_utf8(&mut [0; 4]));
    }

    /// Appends `bytes` decoded as `String::from_utf8_lossy` decodes them:
    /// each invalid sequence becomes one U+FFFD.
    pub fn push_lossy(&mut self, bytes: &[u8]) {
        for chunk in bytes.utf8_chunks() {
            self.push_str(chunk.valid());
            if !chunk.invalid().is_empty() {
                self.push(char::REPLACEMENT_CHARACTER);
            }
        }
    }

    #[inline]
    pub fn as_str(&self) -> &str {
        if self.spilled() {
            &self.spill
        } else {
            // SAFETY: `push_str` initialized `inline[..len]` with whole
            // `str`s, one after the other, so the bytes are valid UTF-8.
            unsafe { std::str::from_utf8_unchecked(self.inline[..self.len].assume_init_ref()) }
        }
    }

    /// The string built so far, in one allocation.
    #[inline]
    pub fn finish(&self) -> Rc<str> {
        Rc::from(self.as_str())
    }
}

impl Default for StrBuf {
    fn default() -> StrBuf {
        StrBuf::new()
    }
}

impl fmt::Write for StrBuf {
    #[inline]
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.push_str(s);
        Ok(())
    }
}

/// `parts` joined, in one allocation.
pub fn concat(parts: &[&str]) -> Rc<str> {
    let mut b = StrBuf::new();
    for p in parts {
        b.push_str(p);
    }
    b.finish()
}

/// `format!`, into an `Rc<str>` in one allocation.
pub fn format(args: fmt::Arguments<'_>) -> Rc<str> {
    let mut b = StrBuf::new();
    // Writing to a `StrBuf` cannot fail.
    let _ = fmt::Write::write_fmt(&mut b, args);
    b.finish()
}

/// `bytes` decoded lossily, as `String::from_utf8_lossy`, in one
/// allocation.
pub fn lossy(bytes: &[u8]) -> Rc<str> {
    let mut b = StrBuf::new();
    b.push_lossy(bytes);
    b.finish()
}

/// The `len` characters of `s` from character `from` on, as far as `s`
/// goes.
pub fn substr(s: &str, from: usize, len: usize) -> &str {
    let at = |s: &str, n: usize| s.char_indices().nth(n).map_or(s.len(), |(i, _)| i);
    let rest = &s[at(s, from)..];
    &rest[..at(rest, len)]
}

/// `str::to_uppercase`, in one allocation.
pub fn to_upper(s: &str) -> Rc<str> {
    let mut b = StrBuf::new();
    for c in s.chars() {
        c.to_uppercase().for_each(|u| b.push(u));
    }
    b.finish()
}

/// `str::to_lowercase`, in one allocation. A string holding `Σ` takes
/// std's path: whether it becomes `ς` depends on the letters around it.
pub fn to_lower(s: &str) -> Rc<str> {
    if s.contains('Σ') {
        return Rc::from(s.to_lowercase());
    }
    let mut b = StrBuf::new();
    for c in s.chars() {
        c.to_lowercase().for_each(|l| b.push(l));
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_what_a_string_would() {
        assert_eq!(&*concat(&[]), "");
        assert_eq!(&*concat(&["www", ".", "example"]), "www.example");
        assert_eq!(&*format(format_args!("<{} {}>", 7, "x")), "<7 x>");
        // Across the inline bound: spilled, and still the whole string.
        let long = "é".repeat(INLINE);
        let mut b = StrBuf::new();
        b.push_str("a");
        b.push_str(&long);
        b.push('z');
        assert_eq!(b.as_str(), format!("a{long}z"));
        assert_eq!(
            &*concat(&[&long[..INLINE - 2], "ab"]),
            format!("{}ab", &long[..INLINE - 2])
        );
        // Sized past the bound up front: on the heap from the start.
        let mut b = StrBuf::with_capacity(INLINE + 1);
        b.push_str("ab");
        b.push_str(&long);
        assert_eq!(&*b.finish(), format!("ab{long}"));
    }

    #[test]
    fn case_and_substrings_agree_with_std() {
        for s in ["", "MiXeD", "straße", "ǅ", "ΌΣΟΣ Σ", "İx", "ﬁ"] {
            assert_eq!(&*to_upper(s), s.to_uppercase(), "{s}");
            assert_eq!(&*to_lower(s), s.to_lowercase(), "{s}");
            for from in 0..8 {
                for len in 0..8 {
                    let want: String = s.chars().skip(from).take(len).collect();
                    assert_eq!(substr(s, from, len), want, "{s} {from} {len}");
                }
            }
        }
    }

    #[test]
    fn lossy_decodes_as_std_does() {
        for bytes in [
            &b""[..],
            b"plain",
            b"caf\xc3\xa9",
            b"\xff\xfe",
            b"a\xe2\x82b",
            b"\xf0\x9f\x98",
            b"ok\xc0\xafend",
        ] {
            assert_eq!(&*lossy(bytes), String::from_utf8_lossy(bytes), "{bytes:?}");
        }
        let big: Vec<u8> = (0..=255u8).cycle().take(3 * INLINE).collect();
        assert_eq!(&*lossy(&big), String::from_utf8_lossy(&big));
    }
}
