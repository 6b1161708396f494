//! Checkpoint/resume: the worker-local training state that shrink-and-
//! continue recovery and cold restarts both rehydrate from.
//!
//! A [`Checkpoint`] captures everything `run_worker`'s loop consumes —
//! model parameters and the optimizer's momentum velocity (both flat, in
//! `visit_params` order), the master seed and the global step counter —
//! with the same hand-rolled little-endian codec discipline as the wire
//! layer ([`cluster_comm::transport::wire`]): no serde, explicit lengths,
//! a magic header and a version byte so stale files fail loudly instead
//! of deserializing garbage. Encoding is bit-exact: `decode(encode(c))`
//! reproduces every f32 bit pattern, which is what makes resume-parity
//! tests meaningful.
//!
//! The trainer writes checkpoints when [`crate::TrainConfig`]'s
//! `checkpoint_every` is set and the `A2SGD_CKPT_DIR` environment variable
//! names a directory (rank 0 only — state is bit-identical across ranks
//! after each synchronized step, so one copy is the consistent global
//! snapshot). The `a2sgd-elastic` crate reads them back for restart
//! catch-up.

use a2sgd_sched::SchedState;
use std::path::Path;

/// Environment variable naming the checkpoint output directory.
pub const ENV_CKPT_DIR: &str = "A2SGD_CKPT_DIR";

/// Codec v3, the only version decoded: step/seed/params/velocity (each
/// f32 vector one length-prefixed run) plus an optional sync-schedule
/// block. The last byte is the version. v2 stored the velocity as one run
/// per parameter tensor; v1 had no schedule block.
const MAGIC: &[u8; 8] = b"A2SGDCK\x03";

/// Sync-schedule state captured alongside the model state, so resuming
/// mid-period re-enters the window at the exact phase.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedCheckpoint {
    /// Window phase, period in force and adaptive reference (the f64 is
    /// stored as its bit pattern, so resume is bit-exact).
    pub state: SchedState,
    /// The pseudo-gradient anchor: parameters as of the last sync. A
    /// checkpoint cut mid-window needs it to rebuild `Δ = w_anchor − w`
    /// identically on resume.
    pub anchor: Vec<f32>,
}

/// One consistent snapshot of worker-local training state.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Global iteration count at capture (iterations fully applied).
    pub step: u64,
    /// The run's master seed — resume asserts it matches the config so a
    /// checkpoint can't silently splice into a different experiment.
    pub seed: u64,
    /// Flat model parameters in `visit_params` order.
    pub params: Vec<f32>,
    /// Flat optimizer velocity in `visit_params` order: one value per
    /// parameter, or empty before the first step and for momentum-free runs.
    pub velocity: Vec<f32>,
    /// Sync-schedule state (`None` for every-step runs).
    pub sched: Option<SchedCheckpoint>,
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f32s(out: &mut Vec<u8>, v: &[f32]) {
    put_u64(out, v.len() as u64);
    for x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.buf.len() - self.pos < n {
            return Err(format!(
                "checkpoint truncated: need {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f32s(&mut self) -> Result<Vec<f32>, String> {
        let n = self.u64()? as usize;
        // Guard against a corrupt length word asking for more than exists.
        let bytes = self.take(n.checked_mul(4).ok_or("f32 vector length overflows")?)?;
        Ok(bytes.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect())
    }
}

impl Checkpoint {
    /// Serializes to the versioned little-endian byte layout.
    pub fn encode(&self) -> Vec<u8> {
        let floats = self.params.len() + self.velocity.len();
        let mut out = Vec::with_capacity(8 + 16 + 4 * floats + 64);
        out.extend_from_slice(MAGIC);
        put_u64(&mut out, self.step);
        put_u64(&mut out, self.seed);
        put_f32s(&mut out, &self.params);
        put_f32s(&mut out, &self.velocity);
        // Tail: schedule presence flag, then the block.
        match &self.sched {
            None => put_u64(&mut out, 0),
            Some(s) => {
                put_u64(&mut out, 1);
                put_u64(&mut out, s.state.local_in_window);
                put_u64(&mut out, s.state.current_h);
                put_u64(&mut out, s.state.ref_dispersion.to_bits());
                put_f32s(&mut out, &s.anchor);
            }
        }
        out
    }

    /// Decodes [`Self::encode`]'s layout; errors name what was malformed.
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, String> {
        let mut r = Reader { buf: bytes, pos: 0 };
        let magic = r.take(8)?;
        if magic[..7] != MAGIC[..7] {
            return Err(format!("not a checkpoint (magic {magic:02x?})"));
        }
        if magic[7] != MAGIC[7] {
            return Err(format!(
                "unsupported checkpoint version {} (this build reads version {})",
                magic[7], MAGIC[7]
            ));
        }
        let step = r.u64()?;
        let seed = r.u64()?;
        let params = r.f32s()?;
        let velocity = r.f32s()?;
        let sched = match r.u64()? {
            0 => None,
            1 => Some(SchedCheckpoint {
                state: SchedState {
                    local_in_window: r.u64()?,
                    current_h: r.u64()?,
                    ref_dispersion: f64::from_bits(r.u64()?),
                },
                anchor: r.f32s()?,
            }),
            f => return Err(format!("bad schedule presence flag {f}")),
        };
        if r.pos != bytes.len() {
            return Err(format!("{} trailing bytes after checkpoint", bytes.len() - r.pos));
        }
        Ok(Checkpoint { step, seed, params, velocity, sched })
    }

    /// Writes the encoding to `path` (atomically: temp file + rename, so a
    /// crash mid-write never leaves a torn checkpoint under the real name).
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.encode()).map_err(|e| format!("write {tmp:?}: {e}"))?;
        std::fs::rename(&tmp, path).map_err(|e| format!("rename {tmp:?} → {path:?}: {e}"))
    }

    /// Reads and decodes a checkpoint file.
    pub fn read(path: &Path) -> Result<Checkpoint, String> {
        let bytes = std::fs::read(path).map_err(|e| format!("read {path:?}: {e}"))?;
        Self::decode(&bytes)
    }

    /// The conventional file name for the snapshot at `step` inside a
    /// checkpoint directory.
    pub fn file_name(step: u64) -> String {
        format!("ckpt_step_{step:08}.bin")
    }

    /// The latest checkpoint in `dir` by step number (scans for
    /// [`Self::file_name`]-shaped entries), or `None` when there is none.
    pub fn latest_in(dir: &Path) -> Option<(u64, std::path::PathBuf)> {
        let mut best: Option<(u64, std::path::PathBuf)> = None;
        for entry in std::fs::read_dir(dir).ok()? {
            let entry = entry.ok()?;
            let name = entry.file_name();
            let name = name.to_str()?;
            let step: u64 = name.strip_prefix("ckpt_step_")?.strip_suffix(".bin")?.parse().ok()?;
            if best.as_ref().map_or(true, |(b, _)| step > *b) {
                best = Some((step, entry.path()));
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            step: 1234,
            seed: 0xDEAD_BEEF,
            params: vec![1.0, -0.5, f32::MIN_POSITIVE, 3.25e-7, -0.0],
            velocity: vec![0.125, -9.0, 42.0, -0.0, 1.5],
            sched: None,
        }
    }

    fn sample_scheduled() -> Checkpoint {
        Checkpoint {
            sched: Some(SchedCheckpoint {
                state: SchedState { local_in_window: 5, current_h: 8, ref_dispersion: 0.062_5 },
                anchor: vec![1.0, -0.5, 0.25, -0.0, 3.25e-7],
            }),
            ..sample()
        }
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let c = sample();
        let d = Checkpoint::decode(&c.encode()).unwrap();
        assert_eq!(d.step, c.step);
        assert_eq!(d.seed, c.seed);
        // Compare bit patterns, not float equality — -0.0 must survive.
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&d.params), bits(&c.params));
        assert_eq!(bits(&d.velocity), bits(&c.velocity));
        assert_eq!(d.sched, None);
    }

    #[test]
    fn schedule_block_round_trips_bit_exact() {
        let c = sample_scheduled();
        let d = Checkpoint::decode(&c.encode()).unwrap();
        let (ds, cs) = (d.sched.unwrap(), c.sched.unwrap());
        assert_eq!(ds.state.local_in_window, cs.state.local_in_window);
        assert_eq!(ds.state.current_h, cs.state.current_h);
        assert_eq!(ds.state.ref_dispersion.to_bits(), cs.state.ref_dispersion.to_bits());
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&ds.anchor), bits(&cs.anchor));
    }

    /// The byte layout is pinned, not just self-consistent: how the
    /// schedule block's fields are grouped in memory may change, the bytes
    /// of this recorded encoding may not.
    #[test]
    fn scheduled_encoding_matches_the_recorded_bytes() {
        let c = Checkpoint {
            step: 1234,
            seed: 0xDEAD_BEEF,
            params: vec![1.0, -0.5, -0.0],
            velocity: vec![0.125, -9.0, 42.0],
            sched: Some(SchedCheckpoint {
                state: SchedState { local_in_window: 5, current_h: 8, ref_dispersion: 0.062_5 },
                anchor: vec![3.25e-7, f32::MIN_POSITIVE],
            }),
        };
        let hex: String = c.encode().iter().map(|b| format!("{b:02x}")).collect();
        let recorded = concat!(
            "4132534744434b03d204000000000000efbeadde000000000300000000000000",
            "0000803f000000bf0000008003000000000000000000003e000010c100002842",
            "010000000000000005000000000000000800000000000000000000000000b03f",
            "0200000000000000a97bae3400008000",
        );
        assert_eq!(hex, recorded);
        assert_eq!(Checkpoint::decode(&c.encode()).unwrap(), c);
    }

    /// What codec v2 wrote for `scheduled_encoding_matches_the_recorded_bytes`'
    /// checkpoint with per-tensor velocity `[[0.125, -9.0], []]`: a tensor count,
    /// then one length-prefixed run per parameter tensor.
    const RECORDED_V2: &str = concat!(
        "4132534744434b02d204000000000000efbeadde000000000300000000000000",
        "0000803f000000bf00000080020000000000000002000000000000000000003e",
        "000010c100000000000000000100000000000000050000000000000008000000",
        "00000000000000000000b03f0200000000000000a97bae3400008000",
    );

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len()).step_by(2).map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap()).collect()
    }

    #[test]
    fn v2_recorded_bytes_are_rejected_as_unsupported() {
        let err = Checkpoint::decode(&unhex(RECORDED_V2)).unwrap_err();
        assert!(err.contains("unsupported checkpoint version 2"), "{err}");
    }

    #[test]
    fn v1_stamped_files_are_rejected_as_unsupported() {
        // A v1 file is the v2 encoding minus the 48-byte schedule tail,
        // under the old version byte — exactly what the pre-schedule codec
        // wrote.
        let mut v1 = unhex(RECORDED_V2);
        v1.truncate(v1.len() - 48);
        v1[7] = 0x01;
        let err = Checkpoint::decode(&v1).unwrap_err();
        assert!(err.contains("unsupported checkpoint version 1"), "{err}");
        // And a truncated v3 (schedule tail missing) fails loudly.
        let mut bad = sample().encode();
        bad.truncate(bad.len() - 8);
        assert!(Checkpoint::decode(&bad).unwrap_err().contains("truncated"));
    }

    #[test]
    fn corrupt_inputs_fail_loudly() {
        assert!(Checkpoint::decode(b"not a checkpoint file").is_err());
        let mut enc = sample().encode();
        enc.truncate(enc.len() - 3);
        assert!(Checkpoint::decode(&enc).unwrap_err().contains("truncated"));
        let mut enc = sample().encode();
        enc.push(0);
        assert!(Checkpoint::decode(&enc).unwrap_err().contains("trailing"));
    }

    #[test]
    fn file_round_trip_and_latest_scan() {
        let dir = std::env::temp_dir().join(format!("a2sgd-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let c = sample();
        for step in [5u64, 40, 12] {
            let mut c = c.clone();
            c.step = step;
            c.write(&dir.join(Checkpoint::file_name(step))).unwrap();
        }
        let (step, path) = Checkpoint::latest_in(&dir).unwrap();
        assert_eq!(step, 40);
        assert_eq!(Checkpoint::read(&path).unwrap().step, 40);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
