//! The structured event vocabulary of the telemetry spine.
//!
//! Every observable state transition in the simulated memory system is one
//! [`Event`] variant: demand activations, row-swap lifecycle, hot-row
//! tracker (HRT) installs and evictions, CAT cuckoo relocations, epoch
//! rollovers, the three refresh flavours and scheduler stalls. Events are plain `Copy` data stamped with the emitting
//! component's cycle clock, and serialize to one deterministic JSON line
//! each (`kind` first, `at` second, then payload fields).

use rrs_json::Json;

/// One observable state transition, stamped with the cycle it happened at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A demand row activation (physical, post-RIT row).
    Activation {
        /// Cycle of the activation.
        at: u64,
        /// Flat bank index.
        bank: u64,
        /// Physical row number within the bank.
        row: u64,
    },
    /// A mitigation-issued row swap began occupying the channel.
    SwapStart {
        /// Cycle the swap transfer started.
        at: u64,
        /// Flat bank index the pair lives in (swaps never cross banks).
        bank: u64,
        /// First row of the pair.
        row_a: u64,
        /// Second row of the pair.
        row_b: u64,
    },
    /// A row swap finished (channel released).
    SwapDone {
        /// Cycle the swap transfer completed.
        at: u64,
        /// Flat bank index the pair lives in.
        bank: u64,
        /// First row of the pair.
        row_a: u64,
        /// Second row of the pair.
        row_b: u64,
    },
    /// A row pair was unswapped (RIT eviction restoring home locations).
    Unswap {
        /// Cycle the unswap started.
        at: u64,
        /// Flat bank index the pair lives in.
        bank: u64,
        /// First row of the pair.
        row_a: u64,
        /// Second row of the pair.
        row_b: u64,
    },
    /// The hot-row tracker installed a new entry.
    HrtInstall {
        /// Cycle of the install (emitting component's clock).
        at: u64,
        /// Row installed.
        row: u64,
        /// Estimated activation count at install time.
        count: u64,
    },
    /// The hot-row tracker evicted an entry (Misra-Gries decrement-out or
    /// explicit minimum eviction).
    HrtEvict {
        /// Cycle of the eviction.
        at: u64,
        /// Row evicted.
        row: u64,
        /// Estimated count the entry held when evicted.
        count: u64,
    },
    /// The CAT's cuckoo insert displaced entries to alternate slots.
    CatRelocation {
        /// Cycle of the insert that caused the relocations.
        at: u64,
        /// Number of entries moved by this insert.
        moves: u64,
    },
    /// An epoch (refresh window) completed.
    EpochRollover {
        /// Cycle of the boundary.
        at: u64,
        /// Zero-based index of the epoch that just completed.
        epoch: u64,
    },
    /// A periodic (tREFI) refresh pulse.
    Refresh {
        /// Cycle the refresh started.
        at: u64,
    },
    /// A targeted (victim-row) refresh issued by a mitigation.
    TargetedRefresh {
        /// Cycle of the refresh.
        at: u64,
        /// Flat bank index of the refreshed row.
        bank: u64,
        /// Refreshed row number.
        row: u64,
    },
    /// A full-memory preemptive refresh (detector escalation).
    FullRefresh {
        /// Cycle the full refresh started.
        at: u64,
    },
    /// The queued scheduler rejected a request because its channel queue
    /// was full (backpressure).
    SchedulerStall {
        /// Cycle of the rejected submission.
        at: u64,
        /// Total requests queued across channels at that moment.
        queued: u64,
    },
}

impl Event {
    /// The event's stable kind tag (the `kind` field of its JSON line).
    pub fn kind(&self) -> &'static str {
        match self {
            Event::Activation { .. } => "activation",
            Event::SwapStart { .. } => "swap_start",
            Event::SwapDone { .. } => "swap_done",
            Event::Unswap { .. } => "unswap",
            Event::HrtInstall { .. } => "hrt_install",
            Event::HrtEvict { .. } => "hrt_evict",
            Event::CatRelocation { .. } => "cat_relocation",
            Event::EpochRollover { .. } => "epoch_rollover",
            Event::Refresh { .. } => "refresh",
            Event::TargetedRefresh { .. } => "targeted_refresh",
            Event::FullRefresh { .. } => "full_refresh",
            Event::SchedulerStall { .. } => "scheduler_stall",
        }
    }

    /// The cycle the event is stamped with.
    pub fn at(&self) -> u64 {
        match *self {
            Event::Activation { at, .. }
            | Event::SwapStart { at, .. }
            | Event::SwapDone { at, .. }
            | Event::Unswap { at, .. }
            | Event::HrtInstall { at, .. }
            | Event::HrtEvict { at, .. }
            | Event::CatRelocation { at, .. }
            | Event::EpochRollover { at, .. }
            | Event::Refresh { at }
            | Event::TargetedRefresh { at, .. }
            | Event::FullRefresh { at }
            | Event::SchedulerStall { at, .. } => at,
        }
    }

    /// The event as a JSON object with stable field order: `kind`, `at`,
    /// then payload fields in declaration order.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("kind".to_string(), Json::str(self.kind())),
            ("at".to_string(), Json::u64(self.at())),
        ];
        let mut push = |name: &str, v: u64| fields.push((name.to_string(), Json::u64(v)));
        match *self {
            Event::Activation { bank, row, .. } => {
                push("bank", bank);
                push("row", row);
            }
            Event::SwapStart {
                bank, row_a, row_b, ..
            }
            | Event::SwapDone {
                bank, row_a, row_b, ..
            }
            | Event::Unswap {
                bank, row_a, row_b, ..
            } => {
                push("bank", bank);
                push("row_a", row_a);
                push("row_b", row_b);
            }
            Event::HrtInstall { row, count, .. } | Event::HrtEvict { row, count, .. } => {
                push("row", row);
                push("count", count);
            }
            Event::CatRelocation { moves, .. } => push("moves", moves),
            Event::EpochRollover { epoch, .. } => push("epoch", epoch),
            Event::Refresh { .. } | Event::FullRefresh { .. } => {}
            Event::TargetedRefresh { bank, row, .. } => {
                push("bank", bank);
                push("row", row);
            }
            Event::SchedulerStall { queued, .. } => push("queued", queued),
        }
        Json::Obj(fields)
    }

    /// Parses the JSON object produced by [`Event::to_json`] back into the
    /// event — the inverse used by trace consumers (the forensics layer).
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing/malformed field, or the unknown
    /// `kind` tag.
    pub fn from_json(json: &Json) -> Result<Event, String> {
        let kind = json
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| "event line without a string `kind`".to_string())?;
        let field = |name: &str| -> Result<u64, String> {
            json.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{kind} event missing u64 field {name:?}"))
        };
        let at = field("at")?;
        Ok(match kind {
            "activation" => Event::Activation {
                at,
                bank: field("bank")?,
                row: field("row")?,
            },
            "swap_start" => Event::SwapStart {
                at,
                bank: field("bank")?,
                row_a: field("row_a")?,
                row_b: field("row_b")?,
            },
            "swap_done" => Event::SwapDone {
                at,
                bank: field("bank")?,
                row_a: field("row_a")?,
                row_b: field("row_b")?,
            },
            "unswap" => Event::Unswap {
                at,
                bank: field("bank")?,
                row_a: field("row_a")?,
                row_b: field("row_b")?,
            },
            "hrt_install" => Event::HrtInstall {
                at,
                row: field("row")?,
                count: field("count")?,
            },
            "hrt_evict" => Event::HrtEvict {
                at,
                row: field("row")?,
                count: field("count")?,
            },
            "cat_relocation" => Event::CatRelocation {
                at,
                moves: field("moves")?,
            },
            "epoch_rollover" => Event::EpochRollover {
                at,
                epoch: field("epoch")?,
            },
            "refresh" => Event::Refresh { at },
            "targeted_refresh" => Event::TargetedRefresh {
                at,
                bank: field("bank")?,
                row: field("row")?,
            },
            "full_refresh" => Event::FullRefresh { at },
            "scheduler_stall" => Event::SchedulerStall {
                at,
                queued: field("queued")?,
            },
            other => return Err(format!("unknown event kind {other:?}")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lines_are_stable() {
        let e = Event::Activation {
            at: 7,
            bank: 2,
            row: 500,
        };
        assert_eq!(
            e.to_json().to_string_compact(),
            "{\"kind\":\"activation\",\"at\":7,\"bank\":2,\"row\":500}"
        );
        let s = Event::SwapStart {
            at: 10,
            bank: 3,
            row_a: 1,
            row_b: 2,
        };
        assert_eq!(
            s.to_json().to_string_compact(),
            "{\"kind\":\"swap_start\",\"at\":10,\"bank\":3,\"row_a\":1,\"row_b\":2}"
        );
    }

    fn one_of_each() -> [Event; 12] {
        [
            Event::Activation {
                at: 1,
                bank: 0,
                row: 0,
            },
            Event::SwapStart {
                at: 2,
                bank: 5,
                row_a: 0,
                row_b: 1,
            },
            Event::SwapDone {
                at: 3,
                bank: 5,
                row_a: 0,
                row_b: 1,
            },
            Event::Unswap {
                at: 4,
                bank: 5,
                row_a: 0,
                row_b: 1,
            },
            Event::HrtInstall {
                at: 5,
                row: 9,
                count: 1,
            },
            Event::HrtEvict {
                at: 6,
                row: 9,
                count: 1,
            },
            Event::CatRelocation { at: 7, moves: 2 },
            Event::EpochRollover { at: 8, epoch: 0 },
            Event::Refresh { at: 9 },
            Event::TargetedRefresh {
                at: 10,
                bank: 2,
                row: 3,
            },
            Event::FullRefresh { at: 11 },
            Event::SchedulerStall { at: 12, queued: 64 },
        ]
    }

    #[test]
    fn kind_and_at_cover_every_variant() {
        let all = one_of_each();
        let mut kinds: Vec<&str> = all.iter().map(|e| e.kind()).collect();
        for (i, e) in all.iter().enumerate() {
            assert_eq!(e.at(), i as u64 + 1);
        }
        kinds.dedup();
        assert_eq!(kinds.len(), all.len(), "kind tags are distinct");
    }

    #[test]
    fn json_round_trips_every_variant() {
        for e in one_of_each() {
            let parsed = Event::from_json(&e.to_json()).unwrap_or_else(|err| {
                panic!("round trip failed for {}: {err}", e.kind());
            });
            assert_eq!(parsed, e);
        }
    }

    #[test]
    fn from_json_reports_bad_input() {
        let missing = Json::parse("{\"kind\":\"activation\",\"at\":1,\"bank\":0}").unwrap();
        assert!(Event::from_json(&missing).unwrap_err().contains("row"));
        let unknown = Json::parse("{\"kind\":\"teleport\",\"at\":1}").unwrap();
        assert!(Event::from_json(&unknown).unwrap_err().contains("teleport"));
        let no_kind = Json::parse("{\"at\":1}").unwrap();
        assert!(Event::from_json(&no_kind).is_err());
    }
}
