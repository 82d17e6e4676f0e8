//! Engine phase totals, read from the report of the `sim::trace`
//! `Profile` sink that the registry attaches for `trace=profile`.

/// Totals over every run a `Profile` observed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTotals {
    /// Send-phase wall-clock, ns.
    pub send_ns: f64,
    /// Merge-phase wall-clock, ns.
    pub merge_ns: f64,
    /// Receive-phase wall-clock, ns.
    pub receive_ns: f64,
    /// Bookkeeping-phase wall-clock, ns.
    pub bookkeeping_ns: f64,
    /// Active rounds executed.
    pub active_rounds: u64,
    /// Awake node-rounds.
    pub awake_total: u64,
    /// Message copies delivered to awake receivers.
    pub delivered: u64,
    /// Message copies addressed to sleeping receivers.
    pub lost: u64,
    /// Largest delivery-arena footprint, bytes.
    pub arena_peak_bytes: f64,
}

impl PhaseTotals {
    /// Sum of the four phases, ns.
    pub fn phases_ns(&self) -> f64 {
        self.send_ns + self.merge_ns + self.receive_ns + self.bookkeeping_ns
    }

    /// Delivered copies over staged ones (delivered + lost to sleepers);
    /// the rest is staging work wasted on sleeping receivers.
    pub fn delivered_ratio(&self) -> f64 {
        let staged = self.delivered + self.lost;
        if staged == 0 {
            0.0
        } else {
            self.delivered as f64 / staged as f64
        }
    }

    /// Adds another profile's totals (the arena peak is a maximum).
    pub fn absorb(&mut self, o: &PhaseTotals) {
        self.send_ns += o.send_ns;
        self.merge_ns += o.merge_ns;
        self.receive_ns += o.receive_ns;
        self.bookkeeping_ns += o.bookkeeping_ns;
        self.active_rounds += o.active_rounds;
        self.awake_total += o.awake_total;
        self.delivered += o.delivered;
        self.lost += o.lost;
        self.arena_peak_bytes = self.arena_peak_bytes.max(o.arena_peak_bytes);
    }

    /// Parses a rendered `Profile` report. Lines it does not know are
    /// skipped; `None` when the header line is missing.
    pub fn parse(report: &str) -> Option<PhaseTotals> {
        let mut t = PhaseTotals::default();
        let mut header = false;
        for line in report.lines() {
            let w: Vec<&str> = line.split_whitespace().collect();
            match w.as_slice() {
                ["phase", "profile:", _, _, rounds, "active", "rounds,", awake, ..] => {
                    header = true;
                    t.active_rounds = rounds.parse().ok()?;
                    t.awake_total = awake.parse().ok()?;
                }
                [phase @ ("send" | "merge" | "receive" | "bookkeeping"), _, total, ..] => {
                    let ns = parse_ns(total)?;
                    match *phase {
                        "send" => t.send_ns = ns,
                        "merge" => t.merge_ns = ns,
                        "receive" => t.receive_ns = ns,
                        _ => t.bookkeeping_ns = ns,
                    }
                }
                ["wake", "batch", .., "high-water", value, unit] => {
                    t.arena_peak_bytes = parse_bytes(value, unit)?;
                }
                ["messages:", delivered, "delivered,", lost, ..] => {
                    t.delivered = delivered.parse().ok()?;
                    t.lost = lost.parse().ok()?;
                }
                _ => {}
            }
        }
        header.then_some(t)
    }
}

/// `1.34s` / `383.12ms` / `12.5µs` / `870ns` → nanoseconds.
fn parse_ns(s: &str) -> Option<f64> {
    let (num, scale) = if let Some(v) = s.strip_suffix("ns") {
        (v, 1.0)
    } else if let Some(v) = s.strip_suffix("µs") {
        (v, 1e3)
    } else if let Some(v) = s.strip_suffix("ms") {
        (v, 1e6)
    } else {
        (s.strip_suffix('s')?, 1e9)
    };
    num.parse::<f64>().ok().map(|v| v * scale)
}

/// `183.2` `MiB` → bytes.
fn parse_bytes(value: &str, unit: &str) -> Option<f64> {
    let scale = match unit {
        "B" => 1.0,
        "KiB" => 1024.0,
        "MiB" => 1024.0 * 1024.0,
        _ => return None,
    };
    value.parse::<f64>().ok().map(|v| v * scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sleeping_congest::{TraceEvent, TracePhase, TraceSink};

    #[test]
    fn parses_a_rendered_profile() {
        let mut p = sleeping_congest::Profile::new();
        p.event(&TraceEvent::RunBegin {
            nodes: 4,
            shards: 1,
        });
        for (phase, nanos) in
            TracePhase::ALL
                .into_iter()
                .zip([1_340_000_000, 2_500_000, 12_500, 870])
        {
            p.event(&TraceEvent::Phase {
                round: 1,
                phase,
                nanos,
            });
        }
        p.event(&TraceEvent::RoundEnd {
            round: 1,
            nanos: 9,
            delivered: 30,
            lost: 10,
            faulted: 0,
            crashed: 0,
            arena_bytes: 3 << 20,
        });
        p.event(&TraceEvent::RunEnd {
            active_rounds: 7,
            awake_total: 123,
        });
        let t = PhaseTotals::parse(&p.render()).expect("a rendered profile parses");
        assert_eq!(t.send_ns, 1.34e9);
        assert_eq!(t.merge_ns, 2.5e6);
        assert_eq!(t.receive_ns, 12_500.0);
        assert_eq!(t.bookkeeping_ns, 870.0);
        assert_eq!((t.active_rounds, t.awake_total), (7, 123));
        assert_eq!((t.delivered, t.lost), (30, 10));
        assert_eq!(t.delivered_ratio(), 0.75);
        assert_eq!(t.arena_peak_bytes, 3.0 * 1024.0 * 1024.0);
    }

    #[test]
    fn rejects_text_without_a_header() {
        assert_eq!(PhaseTotals::parse("  send 1 1.0s 100.0%"), None);
    }
}
