//! The JSON round trip of [`ControllerStats`], the per-run statistics
//! block embedded in serialized campaign results. The conversions are
//! generated from the controller's statistics table; field order is fixed
//! (table order) for byte-identical re-serialization.
//!
//! [`ControllerStats`]: crate::controller::ControllerStats

#[cfg(test)]
mod tests {
    use rrs_json::{FromJson, ToJson};

    use crate::controller::ControllerStats;

    #[test]
    fn controller_stats_round_trip() {
        let s = ControllerStats {
            reads: 10,
            writes: 20,
            activations: 5,
            row_hits: 25,
            swaps: 2,
            unswaps: 1,
            targeted_refreshes: 3,
            refreshes: 7,
            full_refreshes: 0,
            mitigation_delay_cycles: 99,
            swap_busy_cycles: 1_000_000,
            epochs_completed: 4,
            epoch_swap_history: vec![0, 1, 0, 1],
            epoch_hot_row_history: vec![2, 2, 3, 1],
        };
        let back = ControllerStats::from_json(&s.to_json()).unwrap();
        assert_eq!(back.reads, s.reads);
        assert_eq!(back.epoch_swap_history, s.epoch_swap_history);
        assert_eq!(back.epoch_hot_row_history, s.epoch_hot_row_history);
        // Re-serialization is byte-identical.
        assert_eq!(
            back.to_json().to_string_compact(),
            s.to_json().to_string_compact()
        );
    }
}
