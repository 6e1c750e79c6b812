//! Sample statistics and output digests.

use std::time::Instant;

/// Nearest-rank quantile `q ∈ [0, 1]` of unsorted samples (0 when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Median process CPU time of `f` in ms over `reps` calls, after one
/// untimed call.
pub fn median_cpu_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut t = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = cpu_ms();
        f();
        t.push(cpu_ms() - t0);
    }
    median(&t)
}

pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// FNV-1a over the bit patterns of output values: equal digests mean
/// bit-identical outputs.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f32s(&mut self, values: &[f32]) {
        for v in values {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }

    pub fn usizes(&mut self, values: &[usize]) {
        for &v in values {
            self.bytes(&(v as u64).to_le_bytes());
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID` and `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn clock_ms(id: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and the clock ids are constants every Linux
    // kernel supports; the call writes only into `ts`.
    let rc = unsafe { clock_gettime(id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({id}) failed");
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

/// CPU time consumed by this process so far, in ms, summed over threads.
///
/// The end-to-end metrics are CPU time, not wall time: on a small VM the
/// hypervisor steals a varying share of each vCPU (25–30% measured during
/// runs on a 2-vCPU KVM guest), which swings wall-clock latency
/// between runs while leaving the CPU time of the same work steady, since
/// the guest kernel accounts stolen time apart from task time.
pub fn cpu_ms() -> f64 {
    clock_ms(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed by the calling thread so far, in ms.
pub fn thread_cpu_ms() -> f64 {
    clock_ms(CLOCK_THREAD_CPUTIME_ID)
}

/// Wall and process-CPU start point of one measured operation.
pub struct Clock {
    wall: Instant,
    cpu: f64,
}

impl Clock {
    pub fn start() -> Self {
        Clock {
            cpu: cpu_ms(),
            wall: Instant::now(),
        }
    }
}

/// Wall and CPU durations of a series of operations, in ms.
#[derive(Default, Clone)]
pub struct Timings {
    pub wall: Vec<f64>,
    pub cpu: Vec<f64>,
}

impl Timings {
    /// Books the operation that began at `c`.
    pub fn stop(&mut self, c: &Clock) {
        self.wall.push(ms_since(c.wall));
        self.cpu.push(cpu_ms() - c.cpu);
    }

    /// Report lines for both clocks: median, p90 and count.
    pub fn report(&self, name: &str) {
        crate::report_samples(&format!("{name}_ms"), "ms", &self.wall);
        crate::report_samples(&format!("{name}_cpu_ms"), "ms", &self.cpu);
    }
}
