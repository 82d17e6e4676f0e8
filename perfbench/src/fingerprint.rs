//! Fingerprints of the simulated counts, and the pins they are checked
//! against.
//!
//! Every operation a workload runs contributes one [`Counts`] record.
//! The fingerprint keeps readable sums of each field plus an FNV-1a
//! hash over every record in order, so a change to any single run or
//! batch shows even when the sums happen to balance out. Wall-clock time
//! never enters a fingerprint.

use std::fmt;

/// The deterministic counts of one operation (a run or a batch).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Worst-case awake rounds of any node.
    pub awake_max: u64,
    /// Awake node-rounds summed over all nodes.
    pub awake_total: u64,
    /// Round complexity.
    pub rounds: u64,
    /// Messages sent.
    pub messages: u64,
    /// MIS size after the operation.
    pub mis_size: u64,
    /// Nodes a repair woke (0 for one-shot runs).
    pub woken: u64,
    /// Repair frontier size (0 for one-shot runs).
    pub frontier: u64,
}

impl Counts {
    const NAMES: [&'static str; 7] = [
        "awake_max",
        "awake_total",
        "rounds",
        "messages",
        "mis_size",
        "woken",
        "frontier",
    ];

    fn fields(&self) -> [u64; 7] {
        [
            self.awake_max,
            self.awake_total,
            self.rounds,
            self.messages,
            self.mis_size,
            self.woken,
            self.frontier,
        ]
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold of a workload's [`Counts`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Records folded in.
    pub ops: u64,
    /// Per-field sums, in [`Counts`] field order.
    pub sums: [u64; 7],
    /// FNV-1a over every field of every record, in order.
    pub hash: u64,
}

impl Default for Fingerprint {
    fn default() -> Fingerprint {
        Fingerprint {
            ops: 0,
            sums: [0; 7],
            hash: FNV_OFFSET,
        }
    }
}

impl Fingerprint {
    /// Folds one operation's counts in.
    pub fn add(&mut self, c: &Counts) {
        self.ops += 1;
        for (i, v) in c.fields().into_iter().enumerate() {
            self.sums[i] = self.sums[i].wrapping_add(v);
            for byte in v.to_le_bytes() {
                self.hash = (self.hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            }
        }
    }

    /// Parses the `key=value` form [`Display`](fmt::Display) writes.
    pub fn parse(text: &str) -> Option<Fingerprint> {
        let mut fp = Fingerprint::default();
        let mut seen = 0usize;
        for token in text.split_whitespace() {
            let (key, value) = token.split_once('=')?;
            match key {
                "ops" => fp.ops = value.parse().ok()?,
                "hash" => fp.hash = u64::from_str_radix(value, 16).ok()?,
                _ => {
                    let i = Counts::NAMES.iter().position(|&n| n == key)?;
                    fp.sums[i] = value.parse().ok()?;
                }
            }
            seen += 1;
        }
        (seen == Counts::NAMES.len() + 2).then_some(fp)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ops={}", self.ops)?;
        for (name, v) in Counts::NAMES.iter().zip(self.sums) {
            write!(f, " {name}={v}")?;
        }
        write!(f, " hash={:016x}", self.hash)
    }
}

/// The committed pins: `fingerprints.txt`, one `<workload> <slot>
/// <fingerprint>` line per workload input; `#` starts a comment.
pub const PINS: &str = include_str!("../fingerprints.txt");

/// The pinned fingerprint of `workload` on input `slot`, if any.
pub fn pinned(pins: &str, workload: &str, slot: u64) -> Option<Fingerprint> {
    pins.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .find_map(|l| {
            let mut parts = l.splitn(3, ' ');
            let (w, s, rest) = (parts.next()?, parts.next()?, parts.next()?);
            (w == workload && s.parse() == Ok(slot))
                .then(|| Fingerprint::parse(rest))
                .flatten()
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Fingerprint {
        let mut fp = Fingerprint::default();
        fp.add(&Counts {
            awake_max: 3,
            awake_total: 40,
            rounds: 9,
            messages: 77,
            mis_size: 5,
            ..Counts::default()
        });
        fp.add(&Counts {
            woken: 12,
            frontier: 4,
            mis_size: 6,
            ..Counts::default()
        });
        fp
    }

    #[test]
    fn display_round_trips() {
        let fp = sample();
        assert_eq!(Fingerprint::parse(&fp.to_string()), Some(fp));
        assert_eq!(fp.sums[4], 11);
        assert_eq!(fp.ops, 2);
    }

    #[test]
    fn parse_rejects_partial_or_unknown_fields() {
        assert_eq!(Fingerprint::parse("ops=1 hash=00"), None);
        let text = sample().to_string().replace("woken", "wakened");
        assert_eq!(Fingerprint::parse(&text), None);
    }

    #[test]
    fn hash_sees_changes_that_sums_hide() {
        let mut a = Fingerprint::default();
        a.add(&Counts {
            rounds: 1,
            ..Counts::default()
        });
        a.add(&Counts {
            rounds: 2,
            ..Counts::default()
        });
        let mut b = Fingerprint::default();
        b.add(&Counts {
            rounds: 2,
            ..Counts::default()
        });
        b.add(&Counts {
            rounds: 1,
            ..Counts::default()
        });
        assert_eq!(a.sums, b.sums);
        assert_ne!(a, b);
    }

    #[test]
    fn pins_are_found_by_workload_and_slot() {
        let fp = sample();
        let pins = format!(
            "# comment\ngrid-mixed 3 {fp}\nserve-trickle 3 {}\n",
            Fingerprint::default()
        );
        assert_eq!(pinned(&pins, "grid-mixed", 3), Some(fp));
        assert_eq!(pinned(&pins, "grid-mixed", 4), None);
        assert_eq!(pinned(&pins, "oneshot-1m", 3), None);
    }

    #[test]
    fn committed_pins_cover_every_workload_input() {
        for w in crate::workloads::NAMES {
            for slot in 0..crate::workloads::SLOTS {
                assert!(
                    pinned(PINS, w, slot).is_some(),
                    "no pin for {w} slot {slot}"
                );
            }
        }
    }
}
