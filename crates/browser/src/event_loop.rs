//! The single-threaded event loop with a virtual clock.
//!
//! Figure 1 of the paper: "the plugin then listens for IE events. When an
//! event occurs, Zorba is called … and the plugin loops between listening
//! for IE events and executing the corresponding listeners." The loop here
//! is that arbiter: tasks (user events, async completions, timers) are
//! queued with virtual timestamps and drained in deterministic order.

use std::collections::BinaryHeap;

/// A queued task: virtual due-time plus a host-defined payload.
#[derive(Debug)]
pub struct Task<T> {
    pub due: u64,
    seq: u64,
    pub payload: T,
}

impl<T> PartialEq for Task<T> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl<T> Eq for Task<T> {}
impl<T> PartialOrd for Task<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Task<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // min-heap: earlier due-time first; FIFO within a tick
        (other.due, other.seq).cmp(&(self.due, self.seq))
    }
}

/// A deterministic, virtual-time task queue.
#[derive(Debug)]
pub struct EventLoop<T> {
    queue: BinaryHeap<Task<T>>,
    now: u64,
    seq: u64,
    pub processed: u64,
}

impl<T> Default for EventLoop<T> {
    fn default() -> Self {
        EventLoop {
            queue: BinaryHeap::new(),
            now: 0,
            seq: 0,
            processed: 0,
        }
    }
}

impl<T> EventLoop<T> {
    pub fn new() -> Self {
        Self::default()
    }

    /// The virtual clock, in milliseconds.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Schedules a task `delay_ms` from now. Equal delays preserve FIFO
    /// order — the determinism the experiments rely on.
    pub fn schedule(&mut self, delay_ms: u64, payload: T) {
        self.seq += 1;
        self.queue.push(Task {
            due: self.now + delay_ms,
            seq: self.seq,
            payload,
        });
    }

    /// Advances the virtual clock by `ms` without running a task — the cost
    /// of synchronous waits that happen *inside* a task (network round
    /// trips, client-side request timeouts). Already-queued tasks keep
    /// their due times; `pop` stays monotonic.
    pub fn advance(&mut self, ms: u64) {
        self.now += ms;
    }

    /// Pops the next task due by `limit`, advancing the clock to its due
    /// time; `None` when the queue is empty or the next task is later.
    pub fn pop(&mut self, limit: u64) -> Option<T> {
        if self.queue.peek()?.due > limit {
            return None;
        }
        let task = self.queue.pop()?;
        self.now = self.now.max(task.due);
        self.processed += 1;
        Some(task.payload)
    }

    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    pub fn len(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_same_tick() {
        let mut el: EventLoop<&str> = EventLoop::new();
        el.schedule(0, "a");
        el.schedule(0, "b");
        el.schedule(0, "c");
        assert_eq!(el.pop(u64::MAX), Some("a"));
        assert_eq!(el.pop(u64::MAX), Some("b"));
        assert_eq!(el.pop(u64::MAX), Some("c"));
        assert_eq!(el.pop(u64::MAX), None);
    }

    #[test]
    fn ordered_by_due_time() {
        let mut el: EventLoop<u32> = EventLoop::new();
        el.schedule(50, 2);
        el.schedule(10, 1);
        el.schedule(100, 3);
        assert_eq!(el.pop(9), None, "nothing is due by 9");
        assert_eq!(el.now(), 0);
        assert_eq!(el.pop(u64::MAX), Some(1));
        assert_eq!(el.now(), 10);
        assert_eq!(el.pop(u64::MAX), Some(2));
        assert_eq!(el.now(), 50);
        assert_eq!(el.pop(u64::MAX), Some(3));
        assert_eq!(el.now(), 100);
    }

    #[test]
    fn clock_is_monotonic_for_tasks_scheduled_mid_run() {
        let mut el: EventLoop<&str> = EventLoop::new();
        el.schedule(100, "late");
        assert_eq!(el.pop(u64::MAX), Some("late"));
        // a zero-delay task scheduled now lands at t=100, not t=0
        el.schedule(0, "after");
        assert_eq!(el.pop(u64::MAX), Some("after"));
        assert_eq!(el.now(), 100);
    }

    #[test]
    fn counters() {
        let mut el: EventLoop<u8> = EventLoop::new();
        el.schedule(1, 1);
        el.schedule(2, 2);
        assert_eq!(el.len(), 2);
        el.pop(u64::MAX);
        el.pop(u64::MAX);
        assert_eq!(el.processed, 2);
        assert!(el.is_empty());
    }
}
