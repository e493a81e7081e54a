//! The thread-based message-passing runtime: ranks, channels, point-to-point
//! messaging and the world barrier.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

/// A message in flight: source rank, user tag and payload.
#[derive(Debug, Clone)]
struct Message {
    src: usize,
    tag: u64,
    data: Vec<u8>,
}

/// The runtime: spawns one thread per rank and wires up the channels.
pub struct Runtime;

impl Runtime {
    /// Runs `num_ranks` ranks, each executing `body` with its own
    /// [`Process`] handle, and returns the per-rank results in rank order.
    ///
    /// # Panics
    ///
    /// Panics if any rank panics (the panic is propagated) or if
    /// `num_ranks == 0`.
    pub fn run<T, F>(num_ranks: usize, body: F) -> Vec<T>
    where
        F: Fn(Process) -> T + Send + Sync,
        T: Send,
    {
        assert!(num_ranks > 0, "at least one rank is required");
        let mut senders = Vec::with_capacity(num_ranks);
        let mut receivers = Vec::with_capacity(num_ranks);
        for _ in 0..num_ranks {
            let (tx, rx) = channel::<Message>();
            senders.push(tx);
            receivers.push(Some(rx));
        }
        let senders = Arc::new(senders);
        let barrier = Arc::new(std::sync::Barrier::new(num_ranks));

        let mut results: Vec<Option<T>> = (0..num_ranks).map(|_| None).collect();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(num_ranks);
            for (rank, rx) in receivers.iter_mut().enumerate() {
                let rx = rx.take().expect("receiver taken once");
                let senders = Arc::clone(&senders);
                let barrier = Arc::clone(&barrier);
                let body = &body;
                handles.push(scope.spawn(move || {
                    let process = Process {
                        rank,
                        size: num_ranks,
                        senders,
                        receiver: rx,
                        pending: Vec::new(),
                        barrier,
                    };
                    body(process)
                }));
            }
            for (rank, handle) in handles.into_iter().enumerate() {
                match handle.join() {
                    Ok(v) => results[rank] = Some(v),
                    Err(e) => std::panic::resume_unwind(e),
                }
            }
        });
        results
            .into_iter()
            .map(|r| r.expect("rank produced a result"))
            .collect()
    }
}

/// The per-rank handle: identity, point-to-point messaging and the world
/// barrier.  Collective operations are provided in
/// [`collectives`](crate::collectives).
pub struct Process {
    rank: usize,
    size: usize,
    senders: Arc<Vec<Sender<Message>>>,
    receiver: Receiver<Message>,
    /// Messages received but not yet matched by a `recv` call.
    pending: Vec<Message>,
    barrier: Arc<std::sync::Barrier>,
}

impl Process {
    /// This process' rank in the world communicator.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of ranks.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Sends `data` to `dest` with the given `tag` (non-blocking, buffered).
    pub fn send(&self, dest: usize, tag: u64, data: &[u8]) {
        assert!(dest < self.size, "destination rank {dest} out of range");
        self.senders[dest]
            .send(Message {
                src: self.rank,
                tag,
                data: data.to_vec(),
            })
            .expect("receiver alive for the lifetime of the runtime");
    }

    /// Receives a message from `src` with the given `tag`, blocking until it
    /// arrives.  Messages from other sources/tags received in the meantime
    /// are buffered and matched by later calls (MPI-style tag matching).
    ///
    /// The pending buffer is drained with order-preserving removal: two
    /// in-flight messages with the same `(src, tag)` (e.g. consecutive
    /// un-barriered iterations of an exchange) must be matched in send order,
    /// so a `swap_remove` would silently deliver them out of order.
    pub fn recv(&mut self, src: usize, tag: u64) -> Vec<u8> {
        if let Some(pos) = self
            .pending
            .iter()
            .position(|m| m.src == src && m.tag == tag)
        {
            return self.pending.remove(pos).data;
        }
        loop {
            let msg = self
                .receiver
                .recv()
                .expect("senders alive for the lifetime of the runtime");
            if msg.src == src && msg.tag == tag {
                return msg.data;
            }
            self.pending.push(msg);
        }
    }

    /// Receives from any source with the given tag; returns `(src, data)`.
    pub fn recv_any(&mut self, tag: u64) -> (usize, Vec<u8>) {
        if let Some(pos) = self.pending.iter().position(|m| m.tag == tag) {
            let m = self.pending.remove(pos);
            return (m.src, m.data);
        }
        loop {
            let msg = self.receiver.recv().expect("senders alive");
            if msg.tag == tag {
                return (msg.src, msg.data);
            }
            self.pending.push(msg);
        }
    }

    /// Synchronises all ranks (world barrier, `MPI_Barrier`).
    pub fn barrier(&self) {
        self.barrier.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_and_size_are_reported() {
        let out = Runtime::run(5, |p| (p.rank(), p.size()));
        assert_eq!(out, vec![(0, 5), (1, 5), (2, 5), (3, 5), (4, 5)]);
    }

    #[test]
    fn single_rank_runtime_works() {
        let out = Runtime::run(1, |p| p.rank() + 100);
        assert_eq!(out, vec![100]);
    }

    #[test]
    #[should_panic]
    fn zero_ranks_rejected() {
        Runtime::run(0, |_| ());
    }

    #[test]
    fn ring_send_recv() {
        let out = Runtime::run(6, |mut p| {
            let next = (p.rank() + 1) % p.size();
            let prev = (p.rank() + p.size() - 1) % p.size();
            p.send(next, 7, &[p.rank() as u8]);
            let data = p.recv(prev, 7);
            data[0] as usize
        });
        assert_eq!(out, vec![5, 0, 1, 2, 3, 4]);
    }

    #[test]
    fn tag_matching_buffers_out_of_order_messages() {
        let out = Runtime::run(2, |mut p| {
            if p.rank() == 0 {
                // send two messages with different tags; receiver asks for
                // the second tag first
                p.send(1, 1, b"first");
                p.send(1, 2, b"second");
                0
            } else {
                let second = p.recv(0, 2);
                let first = p.recv(0, 1);
                assert_eq!(second, b"second");
                assert_eq!(first, b"first");
                1
            }
        });
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn same_tag_messages_keep_send_order_after_pending_reorder() {
        // Regression test: three messages are buffered out of band (tags B,
        // A, A); consuming B from the middle of the pending buffer must not
        // reorder the two remaining tag-A messages (a swap_remove would).
        let out = Runtime::run(2, |mut p| {
            const A: u64 = 1;
            const B: u64 = 2;
            const C: u64 = 3;
            if p.rank() == 0 {
                p.send(1, B, b"b");
                p.send(1, A, b"first");
                p.send(1, A, b"second");
                p.send(1, C, b"c");
                Vec::new()
            } else {
                // forces all four messages into the pending buffer in
                // arrival order [B, A1, A2] before any tag-A match
                let c = p.recv(0, C);
                assert_eq!(c, b"c");
                let b = p.recv(0, B);
                assert_eq!(b, b"b");
                let a1 = p.recv(0, A);
                let a2 = p.recv(0, A);
                vec![a1, a2]
            }
        });
        assert_eq!(out[1], vec![b"first".to_vec(), b"second".to_vec()]);
    }

    #[test]
    fn recv_any_returns_source() {
        let out = Runtime::run(3, |mut p| {
            if p.rank() == 0 {
                let (s1, d1) = p.recv_any(9);
                let (s2, d2) = p.recv_any(9);
                assert_eq!(d1, vec![s1 as u8]);
                assert_eq!(d2, vec![s2 as u8]);
                let mut srcs = vec![s1, s2];
                srcs.sort_unstable();
                assert_eq!(srcs, vec![1, 2]);
                0
            } else {
                p.send(0, 9, &[p.rank() as u8]);
                p.rank()
            }
        });
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn barrier_orders_phases() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        Runtime::run(8, |p| {
            counter.fetch_add(1, Ordering::SeqCst);
            p.barrier();
            // after the barrier every rank must observe all increments
            assert_eq!(counter.load(Ordering::SeqCst), 8);
        });
    }

    #[test]
    fn larger_world_with_many_messages() {
        let out = Runtime::run(16, |mut p| {
            // everyone sends its rank to rank 0
            if p.rank() == 0 {
                let mut sum = 0usize;
                for _ in 1..p.size() {
                    let (_, data) = p.recv_any(3);
                    sum += data[0] as usize;
                }
                sum
            } else {
                p.send(0, 3, &[p.rank() as u8]);
                0
            }
        });
        assert_eq!(out[0], (1..16).sum::<usize>());
    }
}
