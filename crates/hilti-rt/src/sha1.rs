//! SHA-1, implemented from FIPS 180-1.
//!
//! Bro's `files.log` records a SHA-1 hash of every extracted message body
//! (§6.4); the evaluation reproduces that log, so the platform needs the
//! digest. Implemented from scratch per the workspace's no-new-dependencies
//! rule. SHA-1 is used here strictly as a content identifier, as in Bro —
//! not for any security purpose.

use std::fmt;

/// Streaming SHA-1 context.
#[derive(Clone)]
pub struct Sha1 {
    state: [u32; 5],
    buffer: [u8; 64],
    buffered: usize,
    length_bits: u64,
}

impl Sha1 {
    pub fn new() -> Self {
        Sha1 {
            state: [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0],
            buffer: [0u8; 64],
            buffered: 0,
            length_bits: 0,
        }
    }

    /// Feeds more data into the digest.
    pub fn update(&mut self, mut data: &[u8]) {
        self.length_bits = self.length_bits.wrapping_add((data.len() as u64) * 8);
        if self.buffered > 0 {
            let need = 64 - self.buffered;
            let take = need.min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffered = 0;
            }
        }
        while data.len() >= 64 {
            let mut block = [0u8; 64];
            block.copy_from_slice(&data[..64]);
            self.compress(&block);
            data = &data[64..];
        }
        if !data.is_empty() {
            self.buffer[..data.len()].copy_from_slice(data);
            self.buffered = data.len();
        }
    }

    /// Finalizes and returns the 20-byte digest.
    pub fn finish(mut self) -> [u8; 20] {
        let len_bits = self.length_bits;
        self.update(&[0x80]);
        while self.buffered != 56 {
            self.update(&[0]);
        }
        // Length was already counted for the padding bytes; splice in the
        // original bit length directly.
        let mut block = self.buffer;
        block[56..64].copy_from_slice(&len_bits.to_be_bytes());
        self.compress(&block);
        let mut out = [0u8; 20];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Finalizes to the conventional lowercase-hex representation.
    pub fn finish_hex(self) -> String {
        let mut s = String::with_capacity(40);
        self.write_hex(&mut s);
        s
    }

    /// Finalizes, writing the lowercase-hex digest into `out`.
    pub fn write_hex(self, out: &mut impl fmt::Write) {
        let mut hex = [0u8; 40];
        for (pair, b) in hex.chunks_exact_mut(2).zip(self.finish()) {
            pair[0] = HEX_DIGITS[usize::from(b >> 4)];
            pair[1] = HEX_DIGITS[usize::from(b & 0xf)];
        }
        let _ = out.write_str(std::str::from_utf8(&hex).expect("hex digits are ASCII"));
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 80];
        for i in 0..16 {
            w[i] = u32::from_be_bytes([
                block[i * 4],
                block[i * 4 + 1],
                block[i * 4 + 2],
                block[i * 4 + 3],
            ]);
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }
        let [mut a, mut b, mut c, mut d, mut e] = self.state;
        for (i, &wi) in w.iter().enumerate() {
            let (f, k) = match i {
                0..=19 => ((b & c) | (!b & d), 0x5A827999),
                20..=39 => (b ^ c ^ d, 0x6ED9EBA1),
                40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1BBCDC),
                _ => (b ^ c ^ d, 0xCA62C1D6),
            };
            let temp = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(wi);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = temp;
        }
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
    }
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot convenience over a byte slice.
pub fn sha1_hex(data: &[u8]) -> String {
    let mut h = Sha1::new();
    h.update(data);
    h.finish_hex()
}

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fips_test_vectors() {
        assert_eq!(sha1_hex(b"abc"), "a9993e364706816aba3e25717850c26c9cd0d89d");
        assert_eq!(
            sha1_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
        assert_eq!(sha1_hex(b""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    }

    #[test]
    fn million_a() {
        let mut h = Sha1::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(h.finish_hex(), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
    }

    #[test]
    fn streaming_equals_oneshot_at_odd_boundaries() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let oneshot = sha1_hex(&data);
        for split in [1usize, 7, 63, 64, 65, 500, 999] {
            let mut h = Sha1::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish_hex(), oneshot, "split at {split}");
        }
    }

    #[test]
    fn length_boundary_padding() {
        // Messages of length 55, 56, 64 exercise the padding edge cases.
        assert_eq!(sha1_hex(&[b'x'; 55]), {
            let mut h = Sha1::new();
            for _ in 0..55 {
                h.update(b"x");
            }
            h.finish_hex()
        });
        for n in [55usize, 56, 57, 63, 64, 65, 119, 120] {
            let data = vec![b'q'; n];
            let mut h = Sha1::new();
            h.update(&data);
            assert_eq!(h.finish_hex(), sha1_hex(&data), "length {n}");
        }
    }
}
