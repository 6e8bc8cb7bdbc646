//! Ordered fan-out over scoped worker threads.
//!
//! [`map_ordered`] is the workspace's one parallel primitive. The
//! multi-seed scenario runner, `cargo xtask chaos` and the model
//! checker's level expansion all fan independent, deterministic items out
//! with it; none of them nests a fan-out inside another, so a lane count
//! per call is the whole budget. Results come back in input order, so
//! every caller's output is byte-identical at any lane count — only wall
//! time changes.

use std::sync::atomic::{AtomicUsize, Ordering};

/// The default lane count: the machine's available parallelism (1 when
/// it cannot be queried).
pub fn default_lanes() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Applies `f` to every item on up to `lanes` lanes and returns the
/// results in input order.
///
/// The calling thread is one lane; the others are scoped threads, at
/// most one per item beyond the first, so `lanes <= 1` or a single item
/// runs serially with no thread at all. Every lane claims the next index
/// from a shared cursor until the items run out, so a slow item never
/// holds a lane's queue hostage. A panic in `f` propagates to the caller
/// with its original payload once every lane has stopped.
pub fn map_ordered<T, R, F>(items: &[T], lanes: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let extra = lanes.min(items.len()).saturating_sub(1);
    if extra == 0 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let lane = || {
        let mut out = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break };
            out.push((i, f(item)));
        }
        out
    };
    let mut tagged: Vec<(usize, R)> = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..extra).map(|_| scope.spawn(lane)).collect();
        tagged.extend(lane());
        for handle in handles {
            tagged.extend(handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
        }
    });
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Uneven work per item, so lanes finish out of order.
    fn slow_square(&x: &u64) -> u64 {
        let mut acc = x;
        for k in 0..(x % 7) * 20_000 {
            acc = std::hint::black_box(acc.wrapping_mul(31).wrapping_add(k));
        }
        std::hint::black_box(acc);
        x * x
    }

    #[test]
    fn results_come_back_in_input_order_at_any_lane_count() {
        let items: Vec<u64> = (0..40).rev().collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for lanes in [1, 2, 4, 8] {
            assert_eq!(map_ordered(&items, lanes, slow_square), expected, "{lanes} lanes");
        }
    }

    #[test]
    fn more_lanes_than_items_leaves_the_extra_lanes_idle() {
        let items = [3u64, 1, 2];
        assert_eq!(map_ordered(&items, 8, slow_square), [9, 1, 4]);
        assert_eq!(map_ordered(&items[..1], 8, slow_square), [9]);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let items: [u64; 0] = [];
        assert!(map_ordered(&items, 4, slow_square).is_empty());
        assert!(map_ordered(&items, 0, slow_square).is_empty());
    }

    #[test]
    #[should_panic(expected = "item 5 failed")]
    fn a_panicking_item_propagates_to_the_caller() {
        let items: Vec<u64> = (0..16).collect();
        map_ordered(&items, 4, |&x| {
            assert!(x != 5, "item {x} failed");
            x
        });
    }
}
