//! Process-wide cost probes read from `/proc/self`.
//!
//! `support::bench` counts allocations on the calling thread only, so work
//! done on pipeline or fleet worker threads is invisible to it. These
//! readers see the whole process: CPU time summed over every thread,
//! including threads that have already exited, and the resident-set
//! high-water mark.

use std::io;

/// Clock ticks per second behind the `utime`/`stime` fields. Linux fixes
/// `USER_HZ` at 100 for user space on every mainstream architecture.
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds consumed by this process so far, over all
/// of its threads, live and exited.
///
/// # Errors
///
/// Fails when `/proc/self/stat` cannot be read or parsed.
pub fn cpu_seconds() -> io::Result<f64> {
    parse_cpu_seconds(&std::fs::read_to_string("/proc/self/stat")?)
}

/// The resident-set high-water mark (`VmHWM`) of this process, in bytes.
///
/// # Errors
///
/// Fails when `/proc/self/status` cannot be read or has no `VmHWM` line.
pub fn peak_rss_bytes() -> io::Result<u64> {
    parse_vm_hwm(&std::fs::read_to_string("/proc/self/status")?)
}

fn malformed(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

fn parse_cpu_seconds(stat: &str) -> io::Result<f64> {
    // The command name (field 2) is parenthesised and may itself contain
    // spaces or parentheses, so fields are counted from the last `)`.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or_else(|| malformed("/proc/self/stat has no command field"))?;
    let mut fields = rest.split_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut tick_field = |skip: usize| -> io::Result<u64> {
        fields
            .nth(skip)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| malformed("/proc/self/stat utime/stime"))
    };
    let utime = tick_field(11)?;
    let stime = tick_field(0)?;
    Ok((utime + stime) as f64 / USER_HZ)
}

fn parse_vm_hwm(status: &str) -> io::Result<u64> {
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or_else(|| malformed("/proc/self/status has no VmHWM line"))?;
    let kib: u64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|_| malformed("VmHWM value"))?;
    Ok(kib * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn stat_fields_are_counted_from_the_last_parenthesis() {
        let stat = "4242 (odd) name)) S 1 2 3 4 5 6 7 8 9 10 250 150 0 0 20";
        assert_eq!(parse_cpu_seconds(stat).unwrap(), 4.0);
        assert!(parse_cpu_seconds("no command field").is_err());
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\tx\nVmPeak:\t  9 kB\nVmHWM:\t    2048 kB\n";
        assert_eq!(parse_vm_hwm(status).unwrap(), 2048 * 1024);
        assert!(parse_vm_hwm("Name:\tx\n").is_err());
    }

    #[test]
    fn cpu_burned_on_a_spawned_thread_is_counted() {
        let before = cpu_seconds().unwrap();
        std::thread::spawn(|| {
            let start = Instant::now();
            let mut x = 0u64;
            while start.elapsed() < Duration::from_millis(400) {
                x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
            }
            x
        })
        .join()
        .unwrap();
        let burned = cpu_seconds().unwrap() - before;
        // The thread has exited; its CPU time must still be charged to the
        // process. Allow for a loaded host handing the thread well under
        // its 0.4 s of wall time.
        assert!(burned >= 0.1, "spawned-thread CPU missing: {burned}s");
    }

    #[test]
    fn peak_rss_covers_a_large_allocation() {
        let block = vec![1u8; 64 << 20];
        let peak = peak_rss_bytes().unwrap();
        assert!(std::hint::black_box(&block)[(32 << 20) + 7] == 1);
        assert!(peak >= 64 << 20, "VmHWM {peak} below a live 64 MiB block");
    }
}
