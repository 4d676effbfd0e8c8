//! Differential test of the two functional stores: a `Tcdm` and a
//! `Dram` with equal bounds must agree on every typed access.

use proptest::prelude::*;
use sc_mem::{Dram, DramConfig, MemError, Store, Tcdm, TcdmConfig};

const SIZE: u32 = 4096;

/// The accessors under test: `u8`, `u16`, `u32`, `u64`, `f64`, and a
/// three-element `f64` slice.
const ACCESSORS: usize = 6;

#[derive(Debug, Clone, Copy)]
struct Access {
    accessor: usize,
    write: bool,
    addr: u32,
    value: u64,
}

/// Aligned, misaligned, boundary-straddling and wild addresses.
fn addr() -> impl Strategy<Value = u32> {
    prop_oneof![
        (0u32..SIZE / 8).prop_map(|w| w * 8),
        0u32..SIZE,
        SIZE - 32..SIZE + 32,
        any::<u32>(),
    ]
}

fn access() -> impl Strategy<Value = Access> {
    (0..ACCESSORS, any::<bool>(), addr(), any::<u64>()).prop_map(
        |(accessor, write, addr, value)| Access {
            accessor,
            write,
            addr,
            value,
        },
    )
}

/// Performs `a` through the accessor it names: a write returns no
/// words, a read the words it read.
fn apply(mem: &mut dyn Store, a: Access) -> Result<Vec<u64>, MemError> {
    let v = a.value;
    let slice = [f64::from_bits(v), f64::from_bits(!v), f64::from_bits(v ^ 1)];
    if a.write {
        match a.accessor {
            0 => mem.write_u8(a.addr, v as u8),
            1 => mem.write_u16(a.addr, v as u16),
            2 => mem.write_u32(a.addr, v as u32),
            3 => mem.write_u64(a.addr, v),
            4 => mem.write_f64(a.addr, slice[0]),
            _ => mem.write_f64_slice(a.addr, &slice),
        }
        .map(|()| Vec::new())
    } else {
        let word = match a.accessor {
            0 => mem.read_u8(a.addr).map(u64::from),
            1 => mem.read_u16(a.addr).map(u64::from),
            2 => mem.read_u32(a.addr).map(u64::from),
            3 => mem.read_u64(a.addr),
            4 => mem.read_f64(a.addr).map(f64::to_bits),
            _ => {
                let words = mem.read_f64_slice(a.addr, slice.len())?;
                return Ok(words.into_iter().map(f64::to_bits).collect());
            }
        };
        word.map(|w| vec![w])
    }
}

proptest! {
    #[test]
    fn tcdm_and_dram_accessors_agree(
        accesses in proptest::collection::vec(access(), 1..64)
    ) {
        let mut tcdm = Tcdm::new(TcdmConfig::new().with_size(SIZE).with_banks(4));
        let mut dram = Dram::new(DramConfig::new().with_max_bytes(SIZE));
        for a in accesses {
            let high_water = dram.high_water();
            let got = apply(&mut dram, a);
            prop_assert_eq!(&got, &apply(&mut tcdm, a), "{:?}", a);
            if !a.write {
                prop_assert_eq!(dram.high_water(), high_water, "reads never grow the store");
                if let Ok(words) = &got {
                    prop_assert!(
                        (a.addr as usize) < high_water || words.iter().all(|w| *w == 0),
                        "{:?} read past the high-water mark {} returned {:?}",
                        a, high_water, words
                    );
                }
            }
        }
    }
}
