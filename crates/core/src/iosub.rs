//! The I/O Subsystem.
//!
//! Knowledge-model role (Fig. 4/5): physical disk accesses. The "Access
//! Disk" functioning rule of Fig. 5 is implemented literally: a page
//! contiguous to the previously loaded page pays only the transfer time;
//! any other access pays search + latency + transfer.
//!
//! The component prices batches of I/O operations (the [`super::bman`]
//! demand of one object access) and counts them; the disk itself is a
//! passive resource of the model (capacity 1 per server site), so
//! concurrent transactions queue for it.

use bufmgr::{DiskTimings, IoCounts};
use clustering::PageId;

/// The I/O Subsystem: timing and accounting for one disk.
#[derive(Debug)]
pub struct IoSubsystem {
    disk: DiskTimings,
    counts: IoCounts,
    last_page: Option<PageId>,
}

impl IoSubsystem {
    /// Creates the subsystem with the given timing parameters.
    pub fn new(disk: DiskTimings) -> Self {
        IoSubsystem {
            disk,
            counts: IoCounts::default(),
            last_page: None,
        }
    }

    /// Counters so far.
    pub fn counts(&self) -> IoCounts {
        self.counts
    }

    fn one_access(&mut self, page: PageId) -> f64 {
        let contiguous = matches!(self.last_page, Some(last) if page == last + 1);
        self.last_page = Some(page);
        if contiguous {
            self.disk.contiguous_access_ms()
        } else {
            self.disk.random_access_ms()
        }
    }

    /// Prices (and counts) one page read; returns its service time in ms.
    pub fn read(&mut self, page: PageId) -> f64 {
        self.counts.reads += 1;
        self.one_access(page)
    }

    /// Prices (and counts) one page write; returns its service time in ms.
    pub fn write(&mut self, page: PageId) -> f64 {
        self.counts.writes += 1;
        self.one_access(page)
    }

    /// Prices (and counts) a batch: writes first (frames must free up),
    /// then reads. Returns the total service time.
    pub fn service_batch(&mut self, writes: &[PageId], reads: &[PageId]) -> f64 {
        let mut total = 0.0;
        for &page in writes {
            total += self.write(page);
        }
        for &page in reads {
            total += self.read(page);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguity_rule() {
        let mut io = IoSubsystem::new(DiskTimings::table3_default());
        let full = DiskTimings::table3_default().random_access_ms();
        let seq = DiskTimings::table3_default().contiguous_access_ms();
        assert!((io.read(10) - full).abs() < 1e-12);
        assert!((io.read(11) - seq).abs() < 1e-12);
        assert!((io.read(13) - full).abs() < 1e-12);
        assert_eq!(io.counts().reads, 3);
    }

    #[test]
    fn batch_prices_writes_then_reads() {
        let mut io = IoSubsystem::new(DiskTimings::table3_default());
        let ms = io.service_batch(&[5], &[6, 7]);
        // write 5 (random) + read 6 (contiguous) + read 7 (contiguous).
        let d = DiskTimings::table3_default();
        let expected = d.random_access_ms() + 2.0 * d.contiguous_access_ms();
        assert!((ms - expected).abs() < 1e-12);
        assert_eq!(
            io.counts(),
            IoCounts {
                reads: 2,
                writes: 1
            }
        );
    }

    #[test]
    fn counts_since() {
        let mut io = IoSubsystem::new(DiskTimings::table3_default());
        io.read(1);
        let mark = io.counts();
        io.write(2);
        io.read(3);
        assert_eq!(
            io.counts().since(mark),
            IoCounts {
                reads: 1,
                writes: 1
            }
        );
    }
}
