//! The frozen reference kernel and the calibrator built on it.
//!
//! Host speed on a shared virtual machine drifts by more than the effects
//! worth measuring, so every timed interval of the benchmark is rescaled by
//! the speed of this kernel, timed between chunks of work:
//! `t_cal = t × REF_NOMINAL_SECONDS / t_ref`.
//!
//! **The kernel is frozen.** It is std-only code that uses no repository
//! crate and no standard-library algorithm whose implementation could change
//! (its sort and hash table are written out here), so no change to the
//! program can move it. Changing it changes what a calibrated second means
//! and re-baselines every time metric: `KERNEL_CHECKSUM` guards against an
//! accidental edit.
//!
//! Most of its time goes to walks over freshly allocated random DAGs
//! (adjacency vectors, a longest-path sweep, a DFS). Timed side by side
//! with the scheduler on the reference host, that part tracked the
//! scheduler's speed best: rescaling 150-loop chunks by it left a
//! pass-level spread of 0.026 (log s.d.) against 0.092 raw, where a
//! closure + sort + hash-table kernel alone left 0.042.

use std::time::Instant;

/// Median kernel time on the reference host (2-vCPU x86-64 VM, release
/// build); calibrated seconds read like seconds on that host when quiet.
pub const REF_NOMINAL_SECONDS: f64 = 0.0040;

/// Checksum the kernel must produce; a mismatch means the kernel was edited.
pub const KERNEL_CHECKSUM: u64 = 6_449_615_030_000_978_655;

/// Measured work between two kernel timings (seconds of raw time).
const CHUNK_SECONDS: f64 = 0.05;

/// Kernel timings the current rescaling factor is the median of.
const WINDOW: usize = 3;

const CLOSURE_NODES: usize = 48;
const SORT_KEYS: usize = 4096;
const MAP_KEYS: usize = 2048;
const MAP_SLOTS: usize = 1 << 12;
const GRAPHS: usize = 120;
const GRAPH_NODES: usize = 300;

/// xorshift64* step: the kernel's only source of data.
fn next(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// Longest-path closure (max-plus Floyd–Warshall) over a sparse random
/// 48-node graph: the shape of the scheduler's dependence closures.
fn closure(state: &mut u64) -> u64 {
    const NONE: i64 = i64::MIN / 4;
    let n = CLOSURE_NODES;
    let mut d = vec![NONE; n * n];
    for i in 0..n {
        d[i * n + i] = 0;
        for _ in 0..4 {
            let j = (next(state) % n as u64) as usize;
            let w = (next(state) % 16) as i64 - 8;
            if j != i && w > d[i * n + j] {
                d[i * n + j] = w;
            }
        }
    }
    for k in 0..n {
        for i in 0..n {
            let dik = d[i * n + k];
            if dik == NONE {
                continue;
            }
            for j in 0..n {
                let dkj = d[k * n + j];
                if dkj != NONE && dik + dkj > d[i * n + j] {
                    d[i * n + j] = (dik + dkj).min(1 << 20);
                }
            }
        }
    }
    d.iter()
        .fold(0u64, |acc, &x| acc.wrapping_mul(31).wrapping_add(x as u64))
}

/// Bottom-up merge sort of 4096 random keys.
fn sort(state: &mut u64) -> u64 {
    let mut a: Vec<u64> = (0..SORT_KEYS).map(|_| next(state)).collect();
    let mut b = vec![0u64; SORT_KEYS];
    let mut width = 1;
    while width < SORT_KEYS {
        let mut lo = 0;
        while lo < SORT_KEYS {
            let mid = (lo + width).min(SORT_KEYS);
            let hi = (lo + 2 * width).min(SORT_KEYS);
            let (mut i, mut j) = (lo, mid);
            for slot in &mut b[lo..hi] {
                if j >= hi || (i < mid && a[i] <= a[j]) {
                    *slot = a[i];
                    i += 1;
                } else {
                    *slot = a[j];
                    j += 1;
                }
            }
            lo = hi;
        }
        std::mem::swap(&mut a, &mut b);
        width *= 2;
    }
    a.iter()
        .step_by(97)
        .fold(0u64, |acc, &x| acc.wrapping_mul(31).wrapping_add(x))
}

/// Open-addressing hash table: 2048 inserts, then 2048 lookups (half hits).
fn hash_map(state: &mut u64) -> u64 {
    let mut keys = vec![0u64; MAP_SLOTS];
    let mut vals = vec![0u64; MAP_SLOTS];
    let slot_of = |k: u64| (k.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 52) as usize;
    let mut inserted = Vec::with_capacity(MAP_KEYS);
    for i in 0..MAP_KEYS as u64 {
        let k = next(state) | 1;
        inserted.push(k);
        let mut s = slot_of(k);
        while keys[s] != 0 && keys[s] != k {
            s = (s + 1) & (MAP_SLOTS - 1);
        }
        keys[s] = k;
        vals[s] = i;
    }
    let mut sum = 0u64;
    for (i, &old) in inserted.iter().enumerate() {
        let k = if i % 2 == 0 { old } else { next(state) | 1 };
        let mut s = slot_of(k);
        while keys[s] != 0 {
            if keys[s] == k {
                sum = sum.wrapping_add(vals[s]);
                break;
            }
            s = (s + 1) & (MAP_SLOTS - 1);
        }
    }
    sum
}

/// Random 300-node DAGs, each built from freshly allocated adjacency
/// vectors, swept for longest paths in topological order and walked by an
/// explicit-stack DFS: allocation churn and data-dependent branches, like
/// the scheduler's graph code.
fn graph_walks(state: &mut u64) -> u64 {
    let mut acc = 0u64;
    for _ in 0..GRAPHS {
        let n = GRAPH_NODES;
        let mut succ: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, out) in succ.iter_mut().enumerate() {
            for _ in 0..next(state) % 4 {
                let j = i + 1 + (next(state) % 20) as usize;
                if j < n {
                    out.push(j as u32);
                }
            }
        }
        let mut dist = vec![0i64; n];
        for i in 0..n {
            for &j in &succ[i] {
                let w = (next(state) % 7) as i64;
                if dist[i] + w > dist[j as usize] {
                    dist[j as usize] = dist[i] + w;
                }
            }
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0u32];
        while let Some(v) = stack.pop() {
            if std::mem::replace(&mut seen[v as usize], true) {
                continue;
            }
            acc = acc.wrapping_add(dist[v as usize] as u64);
            stack.extend(succ[v as usize].iter().filter(|&&j| !seen[j as usize]));
        }
    }
    acc
}

/// One run of the reference kernel; returns its checksum.
pub fn kernel() -> u64 {
    let mut state = 0x0123_4567_89ab_cdef;
    let c = closure(&mut state);
    let s = sort(&mut state);
    let h = hash_map(&mut state);
    let g = graph_walks(&mut state);
    c ^ s.rotate_left(16) ^ h.rotate_left(32) ^ g.rotate_left(48)
}

/// Time one kernel run, in seconds.
fn time_kernel() -> f64 {
    let t = Instant::now();
    let sum = std::hint::black_box(kernel());
    let dt = t.elapsed().as_secs_f64();
    assert_eq!(
        sum, KERNEL_CHECKSUM,
        "the reference kernel changed: every calibrated number is re-baselined"
    );
    dt
}

/// Rescales raw intervals by the host speed the kernel saw most recently.
#[derive(Debug)]
pub struct Calibrator {
    samples: Vec<f64>,
    since_ref: f64,
    factor: f64,
}

impl Calibrator {
    /// Warm the kernel up and take the first window of timings.
    pub fn new() -> Self {
        let mut cal = Self {
            samples: Vec::new(),
            since_ref: 0.0,
            factor: 1.0,
        };
        time_kernel();
        for _ in 0..WINDOW {
            cal.recalibrate();
        }
        cal
    }

    fn recalibrate(&mut self) {
        self.samples.push(time_kernel());
        let recent = &self.samples[self.samples.len().saturating_sub(WINDOW)..];
        self.factor = REF_NOMINAL_SECONDS / crate::stats::median(recent);
        self.since_ref = 0.0;
    }

    /// Time the kernel if a chunk of work has been measured since the last
    /// timing. Call between units of work, never inside a timed interval.
    pub fn between_chunks(&mut self) {
        if self.since_ref >= CHUNK_SECONDS {
            self.recalibrate();
        }
    }

    /// Calibrated seconds per raw second, from the latest kernel timings.
    pub fn factor(&self) -> f64 {
        self.factor
    }

    /// Count `raw` seconds of measured work towards the current chunk.
    pub fn account(&mut self, raw: f64) {
        self.since_ref += raw;
    }

    /// Every kernel timing of the run, in seconds.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}
