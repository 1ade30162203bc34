//! The host clock: process start, the measured window, on-CPU time and
//! peak memory of this process. Everything here is wall clock or host
//! memory — the noisy half of the two clocks.

use crate::span;
use std::sync::OnceLock;
use std::time::Instant;

static PROCESS_START: OnceLock<Instant> = OnceLock::new();

/// Pin the process-start instant; `main` calls this first.
pub fn mark_process_start() {
    PROCESS_START.get_or_init(Instant::now);
}

fn process_start() -> Instant {
    *PROCESS_START.get_or_init(Instant::now)
}

/// Nanoseconds this thread has spent on a CPU (`/proc/self/schedstat`,
/// first field). `None` where the kernel does not expose it.
pub fn on_cpu_ns() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/schedstat").ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Host-side measurements of one child's measured window.
#[derive(Debug, Clone, Copy)]
pub struct WindowStats {
    /// Process start → window open: load, cluster build, ramp-up.
    pub setup_s: f64,
    /// Window open → window close, wall clock.
    pub host_s: f64,
    /// On-CPU time inside the window, when the kernel reports it.
    pub cpu_s: Option<f64>,
}

impl WindowStats {
    /// Share of the window's wall clock this thread was *not* on a CPU
    /// (preempted or waiting); `None` without `/proc/self/schedstat`.
    pub fn off_cpu_share(&self) -> Option<f64> {
        self.cpu_s.map(|cpu| ((self.host_s - cpu) / self.host_s).max(0.0))
    }
}

/// The measured window: opened once when ramp-up ends (possibly from
/// inside a call into the stack), closed when the workload returns.
#[derive(Debug, Default)]
pub struct Window {
    opened: Option<(Instant, Option<u64>)>,
}

impl Window {
    /// A window not yet open.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open the window now (idempotent) and tell the tracer.
    pub fn open(&mut self) {
        if self.opened.is_none() {
            span::open_window();
            self.opened = Some((Instant::now(), on_cpu_ns()));
        }
    }

    /// Close the window now. Panics if it never opened: a workload whose
    /// ramp-up outlasts its run measured nothing.
    pub fn close(self) -> WindowStats {
        let now = Instant::now();
        let cpu_now = on_cpu_ns();
        let (at, cpu_at) = self.opened.expect("the measured window never opened");
        WindowStats {
            setup_s: at.duration_since(process_start()).as_secs_f64(),
            host_s: now.duration_since(at).as_secs_f64(),
            cpu_s: cpu_at.zip(cpu_now).map(|(a, b)| b.saturating_sub(a) as f64 / 1e9),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_measures_setup_then_window() {
        mark_process_start();
        let mut w = Window::new();
        w.open();
        let first = w.opened;
        w.open(); // idempotent
        assert_eq!(w.opened.map(|o| o.0), first.map(|o| o.0));
        std::hint::black_box((0..100_000u64).sum::<u64>());
        let s = w.close();
        assert!(s.setup_s >= 0.0 && s.host_s > 0.0);
        if let Some(share) = s.off_cpu_share() {
            assert!((0.0..=1.0).contains(&share));
        }
    }

    #[test]
    fn proc_readers_parse_when_present() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb().expect("VmHWM") > 0.0);
        }
        if std::path::Path::new("/proc/self/schedstat").exists() {
            assert!(on_cpu_ns().is_some());
        }
    }
}
