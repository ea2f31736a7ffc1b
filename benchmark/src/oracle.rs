//! The reference every response is compared against: a sequential
//! `HashMap` applying one op at a time.

use std::collections::HashMap;
use warpdrive::{Op, Response};

/// Sequential reference map.
#[derive(Debug, Default)]
pub struct Oracle(HashMap<u32, u32>);

impl Oracle {
    /// Applies `op` and returns the response a correct map gives.
    pub fn apply(&mut self, op: Op) -> Response {
        match op {
            Op::Put { key, value } => {
                self.0.insert(key, value);
                Response::Put
            }
            Op::Get { key } => Response::Get {
                value: self.0.get(&key).copied(),
            },
            Op::Delete { key } => Response::Delete {
                hit: self.0.remove(&key).is_some(),
            },
        }
    }

    /// Applies `ops` in order and compares each response with `got`; both
    /// are iterators so a million-op batch is checked without a copy.
    ///
    /// # Errors
    /// The first mismatch, with its op index, or a length mismatch.
    pub fn check(
        &mut self,
        ops: impl IntoIterator<Item = Op>,
        got: impl IntoIterator<Item = Response>,
    ) -> Result<u64, String> {
        let mut got = got.into_iter();
        let mut checked = 0u64;
        for op in ops {
            let response = got
                .next()
                .ok_or_else(|| format!("op {checked} {op:?} has no response"))?;
            let want = self.apply(op);
            if want != response {
                return Err(format!(
                    "op {checked} {op:?}: got {response:?}, oracle says {want:?}"
                ));
            }
            checked += 1;
        }
        match got.next() {
            Some(extra) => Err(format!("{checked} ops but an extra response {extra:?}")),
            None => Ok(checked),
        }
    }
}
