//! JSON conversions for the DRAM result types that appear in serialized
//! campaign cells: [`RowAddr`] and [`BitFlip`].
//!
//! Field order is fixed (declaration order) — the campaign engine's
//! byte-identity invariant depends on it.

use rrs_json::{FromJson, Json, JsonError, ToJson};

use crate::geometry::{BankId, ChannelId, RankId, RowAddr, RowId};
use crate::hammer::BitFlip;

impl ToJson for RowAddr {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("channel".into(), Json::u64(self.channel.0 as u64)),
            ("rank".into(), Json::u64(self.rank.0 as u64)),
            ("bank".into(), Json::u64(self.bank.0 as u64)),
            ("row".into(), Json::u64(self.row.0 as u64)),
        ])
    }
}

impl FromJson for RowAddr {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(RowAddr {
            channel: ChannelId(u8::from_json(json.field("channel")?)?),
            rank: RankId(u8::from_json(json.field("rank")?)?),
            bank: BankId(u8::from_json(json.field("bank")?)?),
            row: RowId(u32::from_json(json.field("row")?)?),
        })
    }
}

impl ToJson for BitFlip {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("victim".into(), self.victim.to_json()),
            ("epoch".into(), Json::u64(self.epoch)),
            ("disturbance".into(), Json::f64(self.disturbance)),
        ])
    }
}

impl FromJson for BitFlip {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(BitFlip {
            victim: RowAddr::from_json(json.field("victim")?)?,
            epoch: u64::from_json(json.field("epoch")?)?,
            disturbance: f64::from_json(json.field("disturbance")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_addr_round_trips() {
        let a = RowAddr::new(1, 0, 7, 123_456);
        assert_eq!(RowAddr::from_json(&a.to_json()).unwrap(), a);
    }

    #[test]
    fn bit_flip_round_trips() {
        let f = BitFlip {
            victim: RowAddr::new(0, 1, 2, 3),
            epoch: 42,
            disturbance: 1.25,
        };
        let back = BitFlip::from_json(&f.to_json()).unwrap();
        assert_eq!(back.victim, f.victim);
        assert_eq!(back.epoch, f.epoch);
        assert_eq!(back.disturbance.to_bits(), f.disturbance.to_bits());
    }
}
