//! The crate's one label → code index: an arena-backed, seeded-hash
//! dictionary that hands out dense `u32` codes in first-appearance order.
//!
//! Every distinct label is stored once: its bytes go to one arena
//! `String`, its end offset (`usize`, so offsets cannot wrap) and a
//! 32-bit hash tag go to per-code vectors, and an open-addressing table
//! of `u32` codes (linear probing, load ≤ 1/2) maps a hash to its code.
//! A probe compares tags first, so a mismatch rarely touches the arena.
//!
//! The hash folds 8-byte words through a multiply by a secret key, with
//! a final avalanche. The start value and the key come once per
//! dictionary from
//! [`std::collections::hash_map::RandomState`], so a crafted input
//! cannot fix its collisions in advance. The seed only decides where a
//! code sits in the slot table; the codes themselves follow first
//! appearance, so no output can depend on it.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

/// Marks a free slot; never handed out as a code.
const EMPTY: u32 = u32::MAX;
/// The golden-ratio constant, mixed into the seed to derive the key.
const K: u64 = 0x9E37_79B9_7F4A_7C15;
/// Slots in a fresh dictionary.
const MIN_SLOTS: usize = 16;

/// Distinct labels with dense first-appearance codes.
#[derive(Debug, Clone)]
pub(crate) struct LabelDict {
    /// The hash's start value.
    seed: u64,
    /// The hash's multiplier, derived from the seed; never zero.
    key: u64,
    /// Every label's bytes, back to back in code order.
    arena: String,
    /// `ends[c]`: where label `c` ends in `arena` (it starts where
    /// label `c - 1` ends, or at 0).
    ends: Vec<usize>,
    /// High 32 bits of each label's hash, by code.
    tags: Vec<u32>,
    /// Codes by hash position; `EMPTY` marks a free slot. The length is
    /// a power of two.
    slots: Vec<u32>,
}

impl LabelDict {
    /// An empty dictionary with a fresh random seed.
    pub(crate) fn new() -> Self {
        Self::with_seed(RandomState::new().hash_one(0u64))
    }

    fn with_seed(seed: u64) -> Self {
        Self {
            seed,
            key: avalanche(seed ^ K) | 1,
            arena: String::new(),
            ends: Vec::new(),
            tags: Vec::new(),
            slots: vec![EMPTY; MIN_SLOTS],
        }
    }

    /// Distinct labels interned so far.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether no label has been interned.
    pub(crate) fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The code of `label`, interning it under the next code if it is
    /// new. `None` once all `u32::MAX` codes are taken.
    pub(crate) fn intern(&mut self, label: &str) -> Option<u32> {
        self.intern_new(label).map(|(code, _)| code)
    }

    /// [`LabelDict::intern`], also saying whether `label` was new: one
    /// probe answers both "was it here?" and "what is its code?".
    pub(crate) fn intern_new(&mut self, label: &str) -> Option<(u32, bool)> {
        let h = self.hash(label.as_bytes());
        let slot = match self.find(label.as_bytes(), h) {
            Ok(code) => return Some((code, false)),
            Err(slot) => slot,
        };
        let code = next_code(self.len())?;
        self.arena.push_str(label);
        self.ends.push(self.arena.len());
        self.tags.push(tag(h));
        self.slots[slot] = code;
        if self.len() * 2 > self.slots.len() {
            self.grow();
        }
        Some((code, true))
    }

    /// The code of `label`, if it was interned. Never inserts.
    pub(crate) fn get(&self, label: &str) -> Option<u32> {
        self.find(label.as_bytes(), self.hash(label.as_bytes()))
            .ok()
    }

    /// Every label in code order.
    pub(crate) fn into_labels(self) -> Vec<String> {
        (0..self.len()).map(|c| self.label(c).to_string()).collect()
    }

    fn label(&self, code: usize) -> &str {
        let start = if code == 0 { 0 } else { self.ends[code - 1] };
        &self.arena[start..self.ends[code]]
    }

    /// `Ok(code)` if `label` (hashing to `h`) is present, else
    /// `Err(slot)` with the free slot that ends its probe run.
    fn find(&self, label: &[u8], h: u64) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let want = tag(h);
        let mut i = h as usize & mask;
        loop {
            let code = self.slots[i];
            if code == EMPTY {
                return Err(i);
            }
            if self.tags[code as usize] == want && self.label(code as usize).as_bytes() == label {
                return Ok(code);
            }
            i = (i + 1) & mask;
        }
    }

    /// Doubles the slot table and re-places every code, rehashing its
    /// label from the arena.
    fn grow(&mut self) {
        let slots = vec![EMPTY; self.slots.len() * 2];
        let mask = slots.len() - 1;
        let old = std::mem::replace(&mut self.slots, slots);
        for code in old.into_iter().filter(|&c| c != EMPTY) {
            let mut i = self.hash(self.label(code as usize).as_bytes()) as usize & mask;
            while self.slots[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = code;
        }
    }

    /// Folds the label's little-endian 8-byte words into the seed, one
    /// [`fold_mul`] by the key per word, then folds in the length and
    /// avalanches, so both the slot bits (low) and the tag bits (high)
    /// depend on every input byte. A tail shorter than a word is read
    /// as the label's last 8 bytes, overlapping the word before (or as
    /// two overlapping 4-byte halves, or three single bytes): no copy,
    /// no padding, and with the length every label still maps to its
    /// own word sequence.
    fn hash(&self, bytes: &[u8]) -> u64 {
        let step = |h: u64, w: u64| fold_mul(h ^ w, self.key);
        let n = bytes.len();
        let mut h = self.seed;
        if n >= 8 {
            let mut i = 0;
            while i + 8 < n {
                h = step(h, word(bytes, i));
                i += 8;
            }
            h = step(h, word(bytes, n - 8));
        } else if n >= 4 {
            h = step(h, half(bytes, 0) | half(bytes, n - 4) << 32);
        } else if n > 0 {
            let b = |i: usize| u64::from(bytes[i]);
            h = step(h, b(0) | b(n / 2) << 8 | b(n - 1) << 16);
        }
        avalanche(h ^ n as u64)
    }
}

/// The 128-bit product's halves XORed. With a secret multiplier an
/// input difference leaves an unpredictable output difference; a plain
/// wrapping multiply would pass a flipped top bit through unchanged for
/// every key, which lets a crafted input collide under any seed.
fn fold_mul(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    p as u64 ^ (p >> 64) as u64
}

/// The murmur3 64-bit finalizer: a bijection that spreads every input
/// bit over the whole word.
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ (h >> 33)
}

/// The 8 bytes of `b` at `at`, little-endian.
fn word(b: &[u8], at: usize) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&b[at..at + 8]);
    u64::from_le_bytes(w)
}

/// The 4 bytes of `b` at `at`, little-endian.
fn half(b: &[u8], at: usize) -> u64 {
    let mut w = [0u8; 4];
    w.copy_from_slice(&b[at..at + 4]);
    u64::from(u32::from_le_bytes(w))
}

/// The high 32 bits of a hash: disjoint from the slot bits for any
/// table of up to 2^32 slots.
fn tag(h: u64) -> u32 {
    (h >> 32) as u32
}

/// The code for the `len`-th distinct label, or `None` if it would
/// collide with the `EMPTY` marker (or not fit in a `u32` at all).
fn next_code(len: usize) -> Option<u32> {
    u32::try_from(len).ok().filter(|&c| c != EMPTY)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// The encoder the dictionary replaced: a `HashMap<String, u32>`
    /// beside a first-appearance label list.
    fn oracle(stream: &[&str]) -> (Vec<u32>, Vec<String>) {
        let mut labels: Vec<String> = Vec::new();
        let mut code_of: HashMap<String, u32> = HashMap::new();
        let codes = stream
            .iter()
            .map(|&s| {
                *code_of.entry(s.to_string()).or_insert_with(|| {
                    labels.push(s.to_string());
                    labels.len() as u32 - 1
                })
            })
            .collect();
        (codes, labels)
    }

    fn encode(mut dict: LabelDict, stream: &[&str]) -> (Vec<u32>, Vec<String>) {
        let codes = stream.iter().map(|s| dict.intern(s).unwrap()).collect();
        (codes, dict.into_labels())
    }

    #[test]
    fn grows_across_many_resizes() {
        let owned: Vec<String> = (0..5000).map(|i| format!("u{}", i * 7919 % 5000)).collect();
        let stream: Vec<&str> = owned.iter().chain(&owned).map(String::as_str).collect();
        let mut dict = LabelDict::new();
        let codes: Vec<u32> = stream.iter().map(|s| dict.intern(s).unwrap()).collect();
        assert_eq!(dict.len(), 5000);
        assert!(dict.slots.len() >= 2 * dict.len(), "load stays at most 1/2");
        for (c, s) in owned.iter().enumerate() {
            assert_eq!(dict.get(s), Some(c as u32));
        }
        assert_eq!((codes, dict.into_labels()), oracle(&stream));
    }

    #[test]
    fn empty_label_is_a_label() {
        let mut dict = LabelDict::new();
        assert_eq!(dict.get(""), None);
        assert_eq!(dict.intern("x"), Some(0));
        assert_eq!(dict.intern(""), Some(1));
        assert_eq!(dict.intern(""), Some(1));
        assert_eq!(dict.get(""), Some(1));
        assert_eq!(dict.into_labels(), ["x", ""]);
    }

    #[test]
    fn word_boundary_lengths_stay_distinct() {
        // Every hash branch (three bytes, two overlapping halves, whole
        // and overlapping words): 1- to 9-byte and 17-byte labels, pairs
        // that differ in one byte (after byte 8, in the last byte, in the
        // middle) or only by a trailing NUL, then the stream again.
        let labels = [
            "a",
            "b",
            "ab",
            "ba",
            "a\0",
            "aXc",
            "aYc",
            "é",
            "abcd",
            "abce",
            "abXde",
            "abYde",
            "abcdefg",
            "abcdefh",
            "abcdefg\0",
            "abcdefgh",
            "bbcdefgh",
            "abcdefghi",
            "abcdefghj",
            "abcdefgXi",
            "abcdefgh\0",
            "abcdefghijklmnopq",
            "abcdefghijklmnopr",
        ];
        let twice: Vec<&str> = labels.iter().chain(&labels).copied().collect();
        let (codes, got) = encode(LabelDict::new(), &twice);
        assert_eq!(got, labels);
        assert_eq!((codes, got), oracle(&twice));
    }

    #[test]
    fn crafted_differences_do_not_collide_under_any_seed() {
        // A wrapping multiply passes a flipped top bit straight through
        // (`(x ^ 1 << 63) * k == x * k ^ 1 << 63` for odd `k`), so with a
        // multiply-rotate step the first pair collides under every seed:
        // a top-bit flip in one word is undone by the matching flip in
        // the next. The second pair collides under every seed if the
        // length is XORed into the start value: the first word absorbs
        // the length difference and the overlapping tail words agree.
        let mut flipped = *b"abcdefghijklmnop";
        flipped[7] ^= 0x80;
        flipped[8 + 3] ^= 0x10;
        let pairs: [(&[u8], &[u8]); 2] = [
            (b"abcdefghijklmnop", &flipped),
            (b"aaaaaaaaa", b"baaaaaaaaa"),
        ];
        for seed in [0, 1, 0xDEAD_BEEF, u64::MAX] {
            let dict = LabelDict::with_seed(seed);
            for (a, b) in pairs {
                assert_ne!(dict.hash(a), dict.hash(b), "seed {seed}");
            }
        }
    }

    #[test]
    fn get_never_inserts_and_intern_new_reports_new() {
        let mut dict = LabelDict::new();
        assert!(dict.is_empty());
        for s in ["p", "q", "p"] {
            assert_eq!(dict.get(s), None);
        }
        assert!(dict.is_empty());
        assert_eq!(dict.intern_new("q"), Some((0, true)));
        assert_eq!(dict.intern_new("q"), Some((0, false)));
        assert_eq!(dict.intern_new("r"), Some((1, true)));
        assert_eq!(dict.intern("q"), Some(0));
        assert_eq!(dict.get("p"), None);
        assert_eq!(dict.len(), 2);
        assert_eq!(dict.into_labels(), ["q", "r"]);
    }

    #[test]
    fn the_seed_cannot_change_codes_or_labels() {
        let owned: Vec<String> = (0..300).map(|i| format!("label-{}", i % 211)).collect();
        let stream: Vec<&str> = owned.iter().map(String::as_str).collect();
        let a = encode(LabelDict::with_seed(1), &stream);
        let b = encode(LabelDict::with_seed(0xDEAD_BEEF_F00D), &stream);
        assert_eq!(a, b);
        assert_eq!(a, encode(LabelDict::new(), &stream));
        assert_eq!(a, oracle(&stream));
    }

    #[test]
    fn codes_stop_short_of_the_empty_marker() {
        assert_eq!(next_code(0), Some(0));
        assert_eq!(next_code(EMPTY as usize - 1), Some(EMPTY - 1));
        assert_eq!(next_code(EMPTY as usize), None);
        assert_eq!(next_code(usize::MAX), None);
    }
}
