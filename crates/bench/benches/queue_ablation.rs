//! Ablation: the lock-free slot queue of Listing 1 vs a mutex-guarded
//! VecDeque, under the engine's recycle pattern.
use std::collections::VecDeque;
use std::sync::Arc;

use pccheck::queue::SlotQueue;
use pccheck_bench::stats::time;
use pccheck_util::sync::Mutex;

const OPS: usize = 10_000;

fn main() {
    println!("[queue ablation] {OPS} operations per rep");
    time("recycle_10k/lockfree_slotqueue", 20, || {
        let q: SlotQueue = (0..4u32).collect();
        let mut committed = None;
        for _ in 0..OPS {
            let fresh = q.dequeue_blocking();
            if let Some(old) = committed.replace(fresh) {
                q.enqueue(old).expect("bounded population");
            }
        }
        committed
    });
    time("recycle_10k/mutex_vecdeque", 20, || {
        let q = Mutex::new((0..4u32).collect::<VecDeque<_>>());
        let mut committed = None;
        for _ in 0..OPS {
            let fresh = loop {
                if let Some(v) = q.lock().pop_front() {
                    break v;
                }
            };
            if let Some(old) = committed.replace(fresh) {
                q.lock().push_back(old);
            }
        }
        committed
    });

    // Contended: 2 threads hammering the same queue.
    time("contended_2threads/lockfree_slotqueue", 10, || {
        let q: Arc<SlotQueue> = Arc::new((0..8u32).collect());
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..OPS / 2 {
                        let v = q.dequeue_blocking();
                        q.enqueue_blocking(v);
                    }
                });
            }
        });
    });
    time("contended_2threads/mutex_vecdeque", 10, || {
        let q = Mutex::new((0..8u32).collect::<VecDeque<_>>());
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..OPS / 2 {
                        let v = loop {
                            if let Some(v) = q.lock().pop_front() {
                                break v;
                            }
                        };
                        q.lock().push_back(v);
                    }
                });
            }
        });
    });
}
