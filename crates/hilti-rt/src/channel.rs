//! Thread-safe channels for inter-thread communication (§3.2).
//!
//! HILTI's execution model forbids shared mutable state between virtual
//! threads; channels are the sanctioned way to exchange data. The runtime
//! *deep-copies all mutable data* on send "so that the sender will not see
//! any modifications that the receiver may make" — our [`Channel`] enforces
//! this by requiring the payload to implement [`DeepCopy`], applied on the
//! sending side.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

use crate::error::{ExceptionKind, RtError, RtResult};
use crate::unpoison;

/// Value-semantics duplication, applied when a value crosses a thread
/// boundary. For plain-old-data this is a clone; reference types (like
/// [`crate::Bytes`]) must produce an independent copy.
pub trait DeepCopy {
    fn deep_copy(&self) -> Self;
}

macro_rules! pod_deep_copy {
    ($($t:ty),* $(,)?) => {
        $(impl DeepCopy for $t {
            fn deep_copy(&self) -> Self { self.clone() }
        })*
    };
}

pod_deep_copy!(
    bool,
    u8,
    u16,
    u32,
    u64,
    i8,
    i16,
    i32,
    i64,
    usize,
    isize,
    f64,
    String,
    crate::addr::Addr,
    crate::addr::Network,
    crate::addr::Port,
    crate::time::Time,
    crate::time::Interval
);

impl DeepCopy for crate::bytestring::Bytes {
    fn deep_copy(&self) -> Self {
        crate::bytestring::Bytes::deep_copy(self)
    }
}

impl<T: DeepCopy> DeepCopy for Vec<T> {
    fn deep_copy(&self) -> Self {
        self.iter().map(DeepCopy::deep_copy).collect()
    }
}

impl<T: DeepCopy> DeepCopy for Option<T> {
    fn deep_copy(&self) -> Self {
        self.as_ref().map(DeepCopy::deep_copy)
    }
}

impl<A: DeepCopy, B: DeepCopy> DeepCopy for (A, B) {
    fn deep_copy(&self) -> Self {
        (self.0.deep_copy(), self.1.deep_copy())
    }
}

impl<A: DeepCopy, B: DeepCopy, C: DeepCopy> DeepCopy for (A, B, C) {
    fn deep_copy(&self) -> Self {
        (self.0.deep_copy(), self.1.deep_copy(), self.2.deep_copy())
    }
}

struct Shared<T> {
    queue: Mutex<ChanState<T>>,
    readable: Condvar,
    writable: Condvar,
}

struct ChanState<T> {
    items: VecDeque<T>,
    capacity: Option<usize>,
    closed: bool,
}

/// A multi-producer multi-consumer FIFO channel with optional capacity.
///
/// Cloning the channel yields another handle to the same queue (HILTI's
/// `ref<channel<T>>` semantics).
pub struct Channel<T> {
    shared: Arc<Shared<T>>,
}

impl<T> std::fmt::Debug for Channel<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let q = unpoison(self.shared.queue.lock());
        write!(
            f,
            "Channel {{ len: {}, closed: {} }}",
            q.items.len(),
            q.closed
        )
    }
}

impl<T> Clone for Channel<T> {
    fn clone(&self) -> Self {
        Channel {
            shared: self.shared.clone(),
        }
    }
}

impl<T: DeepCopy> Channel<T> {
    /// An unbounded channel (`capacity` 0 in HILTI means unbounded).
    pub fn unbounded() -> Self {
        Self::with_capacity(None)
    }

    /// A channel holding at most `cap` in-flight items; sends block beyond.
    pub fn bounded(cap: usize) -> Self {
        Self::with_capacity(Some(cap.max(1)))
    }

    fn with_capacity(capacity: Option<usize>) -> Self {
        Channel {
            shared: Arc::new(Shared {
                queue: Mutex::new(ChanState {
                    items: VecDeque::new(),
                    capacity,
                    closed: false,
                }),
                readable: Condvar::new(),
                writable: Condvar::new(),
            }),
        }
    }

    /// Current number of queued items.
    pub fn len(&self) -> usize {
        unpoison(self.shared.queue.lock()).items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Closes the channel: further sends fail; reads drain the remainder.
    pub fn close(&self) {
        let mut q = unpoison(self.shared.queue.lock());
        q.closed = true;
        self.shared.readable.notify_all();
        self.shared.writable.notify_all();
    }

    pub fn is_closed(&self) -> bool {
        unpoison(self.shared.queue.lock()).closed
    }

    /// Blocking send; deep-copies the value before enqueueing.
    pub fn write(&self, value: &T) -> RtResult<()> {
        let copy = value.deep_copy();
        let mut q = unpoison(self.shared.queue.lock());
        loop {
            if q.closed {
                return Err(RtError::new(
                    ExceptionKind::ChannelError,
                    "write to closed channel",
                ));
            }
            match q.capacity {
                Some(cap) if q.items.len() >= cap => q = unpoison(self.shared.writable.wait(q)),
                _ => break,
            }
        }
        q.items.push_back(copy);
        self.shared.readable.notify_one();
        Ok(())
    }

    /// Non-blocking send.
    pub fn try_write(&self, value: &T) -> RtResult<bool> {
        let mut q = unpoison(self.shared.queue.lock());
        if q.closed {
            return Err(RtError::new(
                ExceptionKind::ChannelError,
                "write to closed channel",
            ));
        }
        if let Some(cap) = q.capacity {
            if q.items.len() >= cap {
                return Ok(false);
            }
        }
        q.items.push_back(value.deep_copy());
        self.shared.readable.notify_one();
        Ok(true)
    }

    /// Blocking receive; `Err(ChannelError)` once closed and drained.
    pub fn read(&self) -> RtResult<T> {
        let mut q = unpoison(self.shared.queue.lock());
        loop {
            if let Some(item) = q.items.pop_front() {
                self.shared.writable.notify_one();
                return Ok(item);
            }
            if q.closed {
                return Err(RtError::new(
                    ExceptionKind::ChannelError,
                    "read from closed, drained channel",
                ));
            }
            q = unpoison(self.shared.readable.wait(q));
        }
    }

    /// Non-blocking receive.
    pub fn try_read(&self) -> RtResult<Option<T>> {
        let mut q = unpoison(self.shared.queue.lock());
        if let Some(item) = q.items.pop_front() {
            self.shared.writable.notify_one();
            return Ok(Some(item));
        }
        if q.closed {
            return Err(RtError::new(
                ExceptionKind::ChannelError,
                "read from closed, drained channel",
            ));
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytestring::Bytes;
    use std::thread;

    #[test]
    fn fifo_order() {
        let c = Channel::unbounded();
        for i in 0..10u64 {
            c.write(&i).unwrap();
        }
        for i in 0..10u64 {
            assert_eq!(c.read().unwrap(), i);
        }
    }

    #[test]
    fn deep_copy_isolates_sender() {
        let c = Channel::unbounded();
        let b = Bytes::from_slice(b"abc");
        c.write(&b).unwrap();
        b.append(b"MORE").unwrap(); // mutate after send
        let received = c.read().unwrap();
        assert_eq!(received.to_vec(), b"abc");
        assert!(!received.same(&b));
    }

    #[test]
    fn bounded_try_write_fills_up() {
        let c = Channel::bounded(2);
        assert!(c.try_write(&1).unwrap());
        assert!(c.try_write(&2).unwrap());
        assert!(!c.try_write(&3).unwrap());
        assert_eq!(c.read().unwrap(), 1);
        assert!(c.try_write(&3).unwrap());
    }

    #[test]
    fn close_semantics() {
        let c = Channel::unbounded();
        c.write(&1).unwrap();
        c.close();
        assert!(c.write(&2).is_err());
        assert_eq!(c.read().unwrap(), 1); // drains remainder
        assert_eq!(c.read().unwrap_err().kind, ExceptionKind::ChannelError);
        assert!(c.try_read().is_err());
    }

    #[test]
    fn try_read_empty_open_channel() {
        let c = Channel::<u64>::unbounded();
        assert_eq!(c.try_read().unwrap(), None);
    }

    #[test]
    fn cross_thread_transfer() {
        let c = Channel::unbounded();
        let tx = c.clone();
        let producer = thread::spawn(move || {
            for i in 0..1000u64 {
                tx.write(&i).unwrap();
            }
            tx.close();
        });
        let mut sum = 0u64;
        while let Ok(v) = c.read() {
            sum += v;
        }
        producer.join().unwrap();
        assert_eq!(sum, 999 * 1000 / 2);
    }

    #[test]
    fn bounded_blocking_backpressure() {
        let c = Channel::bounded(4);
        let tx = c.clone();
        let producer = thread::spawn(move || {
            for i in 0..100u64 {
                tx.write(&i).unwrap(); // must block when full, not fail
            }
            tx.close();
        });
        let mut got = Vec::new();
        while let Ok(v) = c.read() {
            got.push(v);
        }
        producer.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn multiple_consumers_partition_items() {
        let c = Channel::unbounded();
        for i in 0..100u64 {
            c.write(&i).unwrap();
        }
        c.close();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let rx = c.clone();
                thread::spawn(move || {
                    let mut n = 0;
                    while rx.read().is_ok() {
                        n += 1;
                    }
                    n
                })
            })
            .collect();
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 100);
    }
}
