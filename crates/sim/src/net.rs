//! Real multi-process execution over local TCP.
//!
//! The simulator in [`crate::runner`] executes every node inside one
//! process. This module runs the *same* [`Protocol`] state machines as
//! genuinely separate peers — one OS process (or thread) per node —
//! exchanging length-prefixed frames over loopback TCP, with a coordinator
//! that replays the runner's lockstep semantics on the wire: it distributes
//! the [`Assignment`]-derived source bits, enforces round barriers with
//! per-round timeouts, routes posts and port messages through the same
//! routing core as [`crate::runner::run_nodes_with`], declares nodes that
//! miss their deadlines crashed, and collects decisions.
//!
//! Only `std::net` is used — the workspace is offline.
//!
//! # Wire format
//!
//! Every frame is `u32` little-endian payload length followed by the
//! payload; payloads start with a one-byte tag:
//!
//! | tag | direction | payload after tag |
//! |-----|-----------|-------------------|
//! | `H` | node → coordinator | `u32` node index (handshake) |
//! | `C` | coordinator → node | `u32 n`, `u32 max_rounds`, `u8` model (0 = blackboard, 1 = message passing) |
//! | `R` | coordinator → node | `u32 round`, `u8 bit`, incoming view (`Vec<M>` board or `Vec<Option<M>>` ports) |
//! | `O` | node → coordinator | outgoing action (tag `0..=3` mirroring [`Outgoing`]), then `Option<Output>` decision |
//! | `F` | coordinator → node | empty — run over, node exits |
//!
//! Values are encoded by the [`Wire`] trait: fixed-width little-endian
//! integers, one-byte booleans, `u32`-count-prefixed vectors, one-byte
//! `Option` tags. `M` and `Output` are whatever the protocol's [`Wire`]
//! impls produce.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use rand::Rng;
use rsbt_random::Assignment;

use crate::model::Model;
use crate::runner::{Incoming, Lockstep, Outgoing, Protocol, RoundCtx, RunOptions, RunOutcome};

/// Frames larger than this are rejected as malformed (16 MiB).
pub const MAX_FRAME: usize = 16 << 20;

const TAG_HELLO: u8 = b'H';
const TAG_CONFIG: u8 = b'C';
const TAG_ROUND: u8 = b'R';
const TAG_REPLY: u8 = b'O';
const TAG_FINISH: u8 = b'F';

const MODEL_BOARD: u8 = 0;
const MODEL_PORTS: u8 = 1;

/// A malformed or truncated wire payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    what: &'static str,
}

impl WireError {
    /// A decode failure described by `what`.
    pub fn new(what: &'static str) -> Self {
        WireError { what }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed wire data: {}", self.what)
    }
}

impl std::error::Error for WireError {}

/// Failures of the multi-process backend.
#[derive(Debug)]
pub enum NetError {
    /// Socket-level failure (peer died, connection refused, …).
    Io(io::Error),
    /// A read deadline expired; the string names the phase. The
    /// coordinator never returns it: a node that misses the handshake or
    /// a round barrier is declared crashed, and a connection that sends
    /// no hello in time is dropped. [`run_node`] returns it when the
    /// coordinator falls silent past the node's timeout.
    Timeout(&'static str),
    /// A peer sent a malformed or protocol-violating frame.
    Protocol(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "socket error: {e}"),
            NetError::Timeout(phase) => write!(f, "timed out waiting for {phase}"),
            NetError::Protocol(what) => write!(f, "wire protocol violation: {what}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => NetError::Timeout("socket read"),
            _ => NetError::Io(e),
        }
    }
}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Protocol(e.to_string())
    }
}

/// Self-describing binary encoding for message and output types.
///
/// Implemented for the primitives and containers protocol messages are
/// built from; protocol crates implement it for their message enums. The
/// encoding is canonical (no padding, fixed endianness), so the socket
/// backend's byte counters are reproducible across runs and hosts.
pub trait Wire: Sized {
    /// Appends the canonical encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes one value from the front of `buf`, advancing it past the
    /// consumed bytes.
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError>;

    /// The encoded length in bytes (used as the wire-accurate
    /// [`Protocol::msg_bytes`]). The default encodes into a scratch
    /// buffer; the containers here and the protocols' message types
    /// compute it without allocating, since the runner sizes every
    /// message it delivers.
    fn wire_len(&self) -> usize {
        let mut v = Vec::new();
        self.encode(&mut v);
        v.len()
    }
}

fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], WireError> {
    if buf.len() < n {
        return Err(WireError::new("truncated payload"));
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

impl Wire for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(take(buf, 1)?[0])
    }

    fn wire_len(&self) -> usize {
        1
    }
}

impl Wire for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let b = take(buf, 4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn wire_len(&self) -> usize {
        4
    }
}

impl Wire for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let b = take(buf, 8)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(b);
        Ok(u64::from_le_bytes(raw))
    }

    fn wire_len(&self) -> usize {
        8
    }
}

impl Wire for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        usize::try_from(u64::decode(buf)?).map_err(|_| WireError::new("usize overflow"))
    }

    fn wire_len(&self) -> usize {
        8
    }
}

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match take(buf, 1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::new("boolean byte not 0/1")),
        }
    }

    fn wire_len(&self) -> usize {
        1
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        let count = u32::try_from(self.len()).expect("vector too long for wire format");
        count.encode(out);
        for item in self {
            item.encode(out);
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let count = u32::decode(buf)? as usize;
        // Each element consumes at least one byte; reject absurd counts
        // before allocating.
        if count > buf.len() {
            return Err(WireError::new("vector count exceeds payload"));
        }
        let mut items = Vec::with_capacity(count);
        for _ in 0..count {
            items.push(T::decode(buf)?);
        }
        Ok(items)
    }

    fn wire_len(&self) -> usize {
        4 + self.iter().map(Wire::wire_len).sum::<usize>()
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok((A::decode(buf)?, B::decode(buf)?))
    }

    fn wire_len(&self) -> usize {
        self.0.wire_len() + self.1.wire_len()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match take(buf, 1)?[0] {
            0 => Ok(None),
            1 => Ok(Some(T::decode(buf)?)),
            _ => Err(WireError::new("option tag not 0/1")),
        }
    }

    fn wire_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Wire::wire_len)
    }
}

fn encode_outgoing<M: Wire>(out: &Outgoing<M>, buf: &mut Vec<u8>) {
    match out {
        Outgoing::Silent => buf.push(0),
        Outgoing::Post(m) => {
            buf.push(1);
            m.encode(buf);
        }
        Outgoing::Send(msgs) => {
            buf.push(2);
            let count = u32::try_from(msgs.len()).expect("too many sends");
            count.encode(buf);
            for (port, m) in msgs {
                (*port as u32).encode(buf);
                m.encode(buf);
            }
        }
        Outgoing::Broadcast(m) => {
            buf.push(3);
            m.encode(buf);
        }
    }
}

fn decode_outgoing<M: Wire>(buf: &mut &[u8]) -> Result<Outgoing<M>, WireError> {
    match take(buf, 1)?[0] {
        0 => Ok(Outgoing::Silent),
        1 => Ok(Outgoing::Post(M::decode(buf)?)),
        2 => {
            let count = u32::decode(buf)? as usize;
            if count > buf.len() {
                return Err(WireError::new("send count exceeds payload"));
            }
            let mut msgs = Vec::with_capacity(count);
            for _ in 0..count {
                let port = u32::decode(buf)? as usize;
                msgs.push((port, M::decode(buf)?));
            }
            Ok(Outgoing::Send(msgs))
        }
        3 => Ok(Outgoing::Broadcast(M::decode(buf)?)),
        _ => Err(WireError::new("unknown outgoing tag")),
    }
}

fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), NetError> {
    let len = u32::try_from(payload.len()).expect("frame exceeds u32 length");
    assert!((len as usize) <= MAX_FRAME, "frame exceeds MAX_FRAME");
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, NetError> {
    let mut lenb = [0u8; 4];
    r.read_exact(&mut lenb)?;
    let len = u32::from_le_bytes(lenb) as usize;
    if len > MAX_FRAME {
        return Err(NetError::Protocol(format!("oversized frame ({len} bytes)")));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

/// Retry, backoff, and crash-detection policy for [`run_coordinator`].
#[derive(Clone, Copy, Debug)]
pub struct FtConfig {
    /// Per-attempt socket read deadline during rounds. One round-barrier
    /// wait may block up to `round_timeout × (retries + 1)` plus the
    /// backoff sleeps before the node is declared crashed.
    pub round_timeout: Duration,
    /// Total deadline for the initial handshake; nodes not connected by
    /// then are declared crashed at round 0 instead of failing the run.
    pub handshake_timeout: Duration,
    /// Additional read attempts after the first timed-out read.
    pub retries: u32,
    /// Sleep after the first timed-out read attempt; doubles per retry.
    pub backoff_start: Duration,
    /// Saturation bound for the doubling backoff.
    pub backoff_cap: Duration,
}

impl FtConfig {
    /// A policy whose per-read deadline and handshake deadline are both
    /// `timeout`, with 2 retries and a 10 ms doubling backoff capped at
    /// 500 ms.
    pub fn with_timeout(timeout: Duration) -> Self {
        FtConfig {
            round_timeout: timeout,
            handshake_timeout: timeout,
            retries: 2,
            backoff_start: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
        }
    }
}

/// [`read_frame`] with bounded retry: a timed-out read sleeps the
/// (saturating, doubling) backoff and tries again up to `ft.retries`
/// extra times. Any other error — including EOF from a dead peer — is
/// returned immediately.
fn read_frame_ft(r: &mut impl Read, ft: &FtConfig) -> Result<Vec<u8>, NetError> {
    let mut backoff = ft.backoff_start;
    let mut attempt = 0;
    loop {
        match read_frame(r) {
            Err(NetError::Timeout(_)) if attempt < ft.retries => {
                attempt += 1;
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(ft.backoff_cap);
            }
            other => return other,
        }
    }
}

/// Accepts node connections until all `n` have shaken hands or
/// `ft.handshake_timeout` passes, polling a non-blocking listener every
/// millisecond. Slots of nodes that never shook hands are `None`
/// (declared crashed at round 0 by the caller). A connection whose hello
/// read fails — no frame within `ft.round_timeout`, EOF, or a socket
/// error — is dropped, and accepting goes on: a silent peer is not a
/// reason to fail the run. A hello frame that arrives but is malformed
/// is a protocol error.
fn accept_nodes(
    listener: &TcpListener,
    n: usize,
    ft: &FtConfig,
) -> Result<Vec<Option<TcpStream>>, NetError> {
    listener.set_nonblocking(true)?;
    // rsbt-analyze: allow(RSBT-L003): socket handshake deadline, not result data
    let deadline = Instant::now() + ft.handshake_timeout;
    let mut slots: Vec<Option<TcpStream>> = (0..n).map(|_| None).collect();
    while slots.iter().any(Option::is_none) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                stream.set_nonblocking(false)?;
                stream.set_read_timeout(Some(ft.round_timeout))?;
                stream.set_nodelay(true).ok();
                let frame = match read_frame(&mut stream) {
                    Ok(frame) => frame,
                    Err(e @ NetError::Protocol(_)) => return Err(e),
                    Err(NetError::Timeout(_) | NetError::Io(_)) => continue,
                };
                let mut buf = frame.as_slice();
                if u8::decode(&mut buf)? != TAG_HELLO {
                    return Err(NetError::Protocol("expected handshake frame".into()));
                }
                let index = u32::decode(&mut buf)? as usize;
                if index >= n {
                    return Err(NetError::Protocol(format!(
                        "node index {index} out of range"
                    )));
                }
                if slots[index].is_some() {
                    return Err(NetError::Protocol(format!("duplicate node index {index}")));
                }
                slots[index] = Some(stream);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                // rsbt-analyze: allow(RSBT-L003): deadline poll on the accept loop
                if Instant::now() >= deadline {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => return Err(NetError::Io(e)),
        }
    }
    listener.set_nonblocking(false)?;
    Ok(slots)
}

/// Runs the coordinator half of a multi-process execution.
///
/// Accepts up to `alpha.n()` node connections on `listener`, then drives
/// the lockstep rounds through the in-process runner's routing core:
/// every round it draws one bit per source from `rng` (as
/// [`crate::runner::run_nodes_with`] does — same seed, same outcome),
/// ships each node its bit and incoming view, waits for every reply (the
/// round barrier), and routes the replies into the next round. It stops
/// when every live node has decided or after `max_rounds`, then tells the
/// nodes to exit. `stats.max_msg_bytes` counts encoded wire bytes, so a
/// protocol whose [`Protocol::msg_bytes`] is [`Wire::wire_len`] reports
/// the runner's stats.
///
/// A node that misses its deadlines is declared **crashed**, and the run
/// degrades to a partial [`RunOutcome`] instead of failing:
///
/// * nodes not connected by [`FtConfig::handshake_timeout`] start
///   crashed; a connection that sends no hello frame within
///   [`FtConfig::round_timeout`] (or hits EOF or a socket error first) is
///   dropped and accepting goes on, so a silent peer cannot fail the run;
/// * a round-barrier read retries up to [`FtConfig::retries`] times with
///   saturating exponential backoff; exhaustion, EOF or any socket error
///   crashes the node;
/// * crashed nodes get no further frames, their mail is dropped, their
///   output is `None`, they count in
///   [`crate::runner::RunStats::crashes`], and completion covers the
///   live nodes only;
/// * `on_round(r)` runs at the top of every round, before any frame is
///   sent — the hook the choreography backend uses to kill a worker
///   process mid-run.
///
/// # Errors
///
/// [`NetError::Protocol`] when a live peer sends a malformed frame or
/// breaks the round rule (a bad or reused port, an outgoing kind the
/// model lacks, a breach of `options.full_participation`);
/// [`NetError::Io`] when the listener fails.
#[allow(clippy::too_many_arguments)]
pub fn run_coordinator<M, O, R, C>(
    listener: &TcpListener,
    model: &Model,
    alpha: &Assignment,
    max_rounds: usize,
    rng: &mut R,
    options: RunOptions,
    ft: &FtConfig,
    mut on_round: C,
) -> Result<RunOutcome<O>, NetError>
where
    M: Wire + Ord + Clone + fmt::Debug,
    O: Wire + Clone + fmt::Debug,
    R: Rng + ?Sized,
    C: FnMut(usize),
{
    let n = alpha.n();
    let mut lockstep = Lockstep::new(model, alpha, options, M::wire_len);
    // A node is crashed exactly when its slot is empty: it never
    // connected, or a write or a round-barrier read to it failed.
    let mut streams = accept_nodes(listener, n, ft)?;

    let model_tag = if model.is_blackboard() {
        MODEL_BOARD
    } else {
        MODEL_PORTS
    };
    let mut config = vec![TAG_CONFIG];
    (n as u32).encode(&mut config);
    (max_rounds as u32).encode(&mut config);
    config.push(model_tag);
    for stream in &mut streams {
        send_or_drop(stream, &config);
    }

    let mut outputs: Vec<Option<O>> = vec![None; n];
    for round in 1..=max_rounds {
        on_round(round);
        // Drawn before any send, faults or not: keeps the stream aligned
        // with the in-process runner.
        lockstep.start_round(round, rng);

        // Ship every node its round frame first, then collect replies:
        // nodes compute concurrently while the coordinator blocks on the
        // slowest one (the round barrier).
        for (i, stream) in streams.iter_mut().enumerate() {
            if stream.is_some() {
                let (bit, incoming) = lockstep.view(i);
                let mut payload = vec![TAG_ROUND];
                (round as u32).encode(&mut payload);
                bit.encode(&mut payload);
                match incoming {
                    Incoming::Board(view) => view.encode(&mut payload),
                    Incoming::Ports(slots) => slots.encode(&mut payload),
                }
                send_or_drop(stream, &payload);
            }
        }

        for (i, slot) in streams.iter_mut().enumerate() {
            let Some(stream) = slot else {
                continue;
            };
            let Ok(frame) = read_frame_ft(stream, ft) else {
                // Missed the round barrier past every retry (or the
                // socket died): declared crashed, not fatal.
                *slot = None;
                continue;
            };
            let mut buf = frame.as_slice();
            if u8::decode(&mut buf)? != TAG_REPLY {
                return Err(NetError::Protocol(format!(
                    "node {i}: expected reply frame"
                )));
            }
            let outgoing: Outgoing<M> = decode_outgoing(&mut buf)?;
            outputs[i] = Option::<O>::decode(&mut buf)?;
            lockstep
                .deliver(i, outgoing, false, || outputs[i].is_some())
                .map_err(|e| NetError::Protocol(format!("node {i}: {e}")))?;
        }

        if (0..n).all(|i| streams[i].is_none() || outputs[i].is_some()) {
            break;
        }
    }

    for stream in &mut streams {
        // A node dying between its last reply and FINISH is still just a
        // crash, not a run failure.
        send_or_drop(stream, &[TAG_FINISH]);
    }
    let crashed = streams.iter().map(Option::is_none).collect();
    Ok(lockstep.finish(outputs, crashed))
}

/// Writes one frame to a live node; a failed write drops the stream,
/// which declares the node crashed.
fn send_or_drop(slot: &mut Option<TcpStream>, payload: &[u8]) {
    if slot
        .as_mut()
        .is_some_and(|s| write_frame(s, payload).is_err())
    {
        *slot = None;
    }
}

/// Runs the node half of a multi-process execution: connect to the
/// coordinator at `addr`, announce `index`, then serve rounds until the
/// coordinator signals the end of the run. Returns the node's decision.
pub fn run_node<P>(
    addr: SocketAddr,
    index: usize,
    mut node: P,
    timeout: Option<Duration>,
) -> Result<Option<P::Output>, NetError>
where
    P: Protocol,
    P::Msg: Wire,
    P::Output: Wire,
{
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(timeout)?;
    stream.set_nodelay(true).ok();

    let mut hello = vec![TAG_HELLO];
    (index as u32).encode(&mut hello);
    write_frame(&mut stream, &hello)?;

    let frame = read_frame(&mut stream)?;
    let mut buf = frame.as_slice();
    if u8::decode(&mut buf)? != TAG_CONFIG {
        return Err(NetError::Protocol("expected config frame".into()));
    }
    let n = u32::decode(&mut buf)? as usize;
    let _max_rounds = u32::decode(&mut buf)?;
    let model_tag = u8::decode(&mut buf)?;
    if model_tag != MODEL_BOARD && model_tag != MODEL_PORTS {
        return Err(NetError::Protocol("unknown model tag".into()));
    }

    loop {
        let frame = read_frame(&mut stream)?;
        let mut buf = frame.as_slice();
        match u8::decode(&mut buf)? {
            TAG_ROUND => {
                let round = u32::decode(&mut buf)? as usize;
                let bit = bool::decode(&mut buf)?;
                let incoming = if model_tag == MODEL_BOARD {
                    Incoming::Board(Vec::<P::Msg>::decode(&mut buf)?)
                } else {
                    Incoming::Ports(Vec::<Option<P::Msg>>::decode(&mut buf)?)
                };
                let ctx = RoundCtx { round, bit, n };
                let outgoing = node.round(ctx, &incoming);
                let mut reply = vec![TAG_REPLY];
                encode_outgoing(&outgoing, &mut reply);
                node.output().encode(&mut reply);
                write_frame(&mut stream, &reply)?;
            }
            TAG_FINISH => return Ok(node.output()),
            _ => {
                return Err(NetError::Protocol(
                    "unexpected frame from coordinator".into(),
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn roundtrip<T: Wire + PartialEq + fmt::Debug>(v: T) {
        let mut buf = Vec::new();
        v.encode(&mut buf);
        assert_eq!(buf.len(), v.wire_len());
        let mut cursor = buf.as_slice();
        assert_eq!(T::decode(&mut cursor).unwrap(), v);
        assert!(cursor.is_empty(), "decode consumed the whole encoding");
    }

    #[test]
    fn wire_roundtrips() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(0xdead_beefu32);
        roundtrip(u64::MAX);
        roundtrip(usize::MAX);
        roundtrip(true);
        roundtrip(false);
        roundtrip(vec![true, false, true]);
        roundtrip(vec![(3u64, 9u64), (1, 2)]);
        roundtrip::<Vec<u64>>(vec![]);
        roundtrip(Some(vec![1u8, 2, 3]));
        roundtrip::<Option<u32>>(None);
    }

    #[test]
    fn wire_rejects_garbage() {
        let mut buf: &[u8] = &[2u8];
        assert!(bool::decode(&mut buf).is_err());
        let mut buf: &[u8] = &[0xff, 0xff, 0xff, 0xff, 1, 2];
        assert!(
            Vec::<u8>::decode(&mut buf).is_err(),
            "absurd count rejected"
        );
        let mut buf: &[u8] = &[1, 2];
        assert!(u32::decode(&mut buf).is_err(), "truncated int rejected");
    }

    #[test]
    fn outgoing_roundtrips() {
        for out in [
            Outgoing::Silent,
            Outgoing::Post(7u8),
            Outgoing::Send(vec![(1, 3u8), (2, 4u8)]),
            Outgoing::Broadcast(9u8),
        ] {
            let mut buf = Vec::new();
            encode_outgoing(&out, &mut buf);
            let mut cursor = buf.as_slice();
            assert_eq!(decode_outgoing::<u8>(&mut cursor).unwrap(), out);
            assert!(cursor.is_empty());
        }
    }

    /// Round 1 post the bit, round 2 decide on the sorted board — the
    /// blackboard smoke protocol.
    #[derive(Default)]
    struct PostBit {
        decided: Option<Vec<bool>>,
    }

    impl Protocol for PostBit {
        type Msg = bool;
        type Output = Vec<bool>;

        fn round(&mut self, ctx: RoundCtx, incoming: &Incoming<bool>) -> Outgoing<bool> {
            if ctx.round == 1 {
                Outgoing::Post(ctx.bit)
            } else {
                if self.decided.is_none() {
                    let board = incoming.board_view().expect("blackboard protocol");
                    self.decided = Some(board.to_vec());
                }
                Outgoing::Silent
            }
        }

        fn output(&self) -> Option<Vec<bool>> {
            self.decided.clone()
        }
    }

    /// Runs `make()` nodes as `alpha.n()` loopback peers, one thread per
    /// node, under the coordinator seeded with `seed`.
    fn loopback<P, F>(
        model: &Model,
        alpha: &Assignment,
        max_rounds: usize,
        seed: u64,
        make: F,
    ) -> RunOutcome<P::Output>
    where
        P: Protocol + Send,
        P::Msg: Wire,
        P::Output: Wire + Send,
        F: Fn() -> P,
    {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let timeout = Duration::from_secs(10);
        let mut rng = StdRng::seed_from_u64(seed);
        std::thread::scope(|scope| {
            for i in 0..alpha.n() {
                let node = make();
                scope.spawn(move || run_node(addr, i, node, Some(timeout)));
            }
            run_coordinator::<P::Msg, P::Output, _, _>(
                &listener,
                model,
                alpha,
                max_rounds,
                &mut rng,
                RunOptions::default(),
                &FtConfig::with_timeout(timeout),
                |_| {},
            )
        })
        .expect("loopback run")
    }

    /// A hand-driven peer for node `index`: shakes hands, answers round 1
    /// with `reply(bit)` and no decision, then drops the connection.
    fn raw_peer(
        addr: SocketAddr,
        index: u32,
        reply: impl FnOnce(bool) -> Outgoing<bool>,
    ) -> Result<(), NetError> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        let mut hello = vec![TAG_HELLO];
        index.encode(&mut hello);
        write_frame(&mut stream, &hello)?;
        let _config = read_frame(&mut stream)?;
        let frame = read_frame(&mut stream)?;
        let mut buf = frame.as_slice();
        assert_eq!(u8::decode(&mut buf).unwrap(), TAG_ROUND);
        let _round = u32::decode(&mut buf).unwrap();
        let bit = bool::decode(&mut buf).unwrap();
        let mut frame = vec![TAG_REPLY];
        encode_outgoing(&reply(bit), &mut frame);
        Option::<Vec<bool>>::None.encode(&mut frame);
        write_frame(&mut stream, &frame)?;
        Ok(()) // drop the stream: an unannounced death
    }

    #[test]
    fn loopback_matches_in_process_runner() {
        let alpha = Assignment::private(4);
        for seed in 0..8 {
            let mut sim_rng = StdRng::seed_from_u64(seed);
            let sim = crate::runner::run(
                &Model::Blackboard,
                &alpha,
                6,
                PostBit::default,
                &mut sim_rng,
            );
            let net = loopback(&Model::Blackboard, &alpha, 6, seed, PostBit::default);
            assert_eq!(net.completed, sim.completed);
            assert_eq!(net.rounds, sim.rounds);
            assert_eq!(net.outputs, sim.outputs);
            // bool's msg_bytes default (1) equals its wire length, so the
            // byte counters agree across backends too.
            assert_eq!(net.stats, sim.stats);
        }
    }

    /// Message-passing echo over real sockets.
    #[derive(Default)]
    struct NetEcho {
        got: Option<Vec<bool>>,
    }

    impl Protocol for NetEcho {
        type Msg = bool;
        type Output = Vec<bool>;

        fn round(&mut self, ctx: RoundCtx, incoming: &Incoming<bool>) -> Outgoing<bool> {
            if ctx.round == 1 {
                Outgoing::Broadcast(ctx.bit)
            } else {
                if self.got.is_none() {
                    let ports = incoming.ports_view().expect("message-passing protocol");
                    let mut bits: Vec<bool> = ports.iter().map(|m| m.unwrap()).collect();
                    bits.sort_unstable();
                    self.got = Some(bits);
                }
                Outgoing::Silent
            }
        }

        fn output(&self) -> Option<Vec<bool>> {
            self.got.clone()
        }
    }

    #[test]
    fn loopback_message_passing_matches_runner() {
        let alpha = Assignment::private(3);
        let model = Model::message_passing_cyclic(3);
        let mut sim_rng = StdRng::seed_from_u64(42);
        let sim = crate::runner::run(&model, &alpha, 4, NetEcho::default, &mut sim_rng);
        let net = loopback(&model, &alpha, 4, 42, NetEcho::default);
        assert_eq!(net.outputs, sim.outputs);
        assert_eq!(net.rounds, sim.rounds);
        assert_eq!(net.stats, sim.stats);
    }

    #[test]
    fn ft_coordinator_matches_strict_without_faults() {
        // With responsive nodes the coordinator must be indistinguishable
        // from the simulator: same RNG draws, same outputs, same counters,
        // and nobody crashed.
        let alpha = Assignment::private(4);
        for seed in 0..4 {
            let mut sim_rng = StdRng::seed_from_u64(seed);
            let sim = crate::runner::run(
                &Model::Blackboard,
                &alpha,
                6,
                PostBit::default,
                &mut sim_rng,
            );
            let net = loopback(&Model::Blackboard, &alpha, 6, seed, PostBit::default);
            assert_eq!(net.outputs, sim.outputs);
            assert_eq!(net.rounds, sim.rounds);
            assert_eq!(net.stats, sim.stats);
            assert!(net.crashed.iter().all(|&c| !c));
        }
    }

    #[test]
    fn ft_coordinator_survives_mid_run_death() {
        // Node 2 replies to round 1 and then silently dies: the
        // coordinator must declare it crashed and let the survivors
        // decide.
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let alpha = Assignment::private(3);
        let mut rng = StdRng::seed_from_u64(7);
        let ft = FtConfig {
            round_timeout: Duration::from_millis(200),
            handshake_timeout: Duration::from_secs(5),
            retries: 1,
            backoff_start: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(50),
        };
        let out = std::thread::scope(|scope| {
            for i in 0..2 {
                scope.spawn(move || {
                    run_node(addr, i, PostBit::default(), Some(Duration::from_secs(5)))
                });
            }
            scope.spawn(move || raw_peer(addr, 2, Outgoing::Post));
            run_coordinator::<bool, Vec<bool>, _, _>(
                &listener,
                &Model::Blackboard,
                &alpha,
                6,
                &mut rng,
                RunOptions::default(),
                &ft,
                |_| {},
            )
        })
        .expect("graceful degradation, not an abort");
        assert!(out.completed, "survivors decided");
        assert_eq!(out.crashed, vec![false, false, true]);
        assert_eq!(out.outputs[2], None, "dead node reports None");
        assert!(out.outputs[0].is_some() && out.outputs[1].is_some());
        assert_eq!(out.stats.crashes, 1);
        // The round-1 post escaped before the death, so the survivors
        // decided on the full 3-post board.
        assert_eq!(out.stats.posts, 3);
    }

    #[test]
    fn ft_handshake_degrades_when_a_node_never_connects() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let alpha = Assignment::private(2);
        let mut rng = StdRng::seed_from_u64(3);
        let ft = FtConfig {
            round_timeout: Duration::from_secs(5),
            handshake_timeout: Duration::from_millis(300),
            retries: 0,
            backoff_start: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(50),
        };
        let out = std::thread::scope(|scope| {
            scope
                .spawn(move || run_node(addr, 0, PostBit::default(), Some(Duration::from_secs(5))));
            // Node 1 never shows up.
            run_coordinator::<bool, Vec<bool>, _, _>(
                &listener,
                &Model::Blackboard,
                &alpha,
                6,
                &mut rng,
                RunOptions::default(),
                &ft,
                |_| {},
            )
        })
        .expect("degraded, not fatal");
        assert_eq!(out.crashed, vec![false, true]);
        assert_eq!(out.stats.crashes, 1);
        assert!(out.completed);
        // The lone survivor saw an empty board.
        assert_eq!(out.outputs[0], Some(vec![]));
        assert_eq!(out.outputs[1], None);
    }

    #[test]
    fn handshake_times_out_without_workers() {
        // Nobody connects before the handshake deadline: every node is
        // crashed and the run ends with a partial outcome, not an error.
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let alpha = Assignment::private(2);
        let mut rng = StdRng::seed_from_u64(0);
        let out = run_coordinator::<bool, bool, _, _>(
            &listener,
            &Model::Blackboard,
            &alpha,
            3,
            &mut rng,
            RunOptions::default(),
            &FtConfig::with_timeout(Duration::from_millis(50)),
            |_| {},
        )
        .expect("crashed nodes, not an error");
        assert_eq!(out.crashed, vec![true, true]);
        assert_eq!(out.outputs, vec![None, None]);
        assert_eq!(out.stats.crashes, 2);
    }

    #[test]
    fn silent_connection_is_dropped_not_fatal() {
        // A peer connects but never sends its hello. Its connection is
        // dropped at the read deadline and accepting goes on: the healthy
        // node runs, and the slot nobody claimed starts crashed.
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        // Queued before the healthy node, so it is accepted first.
        let _silent = TcpStream::connect(addr).unwrap();
        let alpha = Assignment::private(2);
        let mut rng = StdRng::seed_from_u64(3);
        let start = Instant::now();
        let out = std::thread::scope(|scope| {
            scope
                .spawn(move || run_node(addr, 0, PostBit::default(), Some(Duration::from_secs(5))));
            run_coordinator::<bool, Vec<bool>, _, _>(
                &listener,
                &Model::Blackboard,
                &alpha,
                3,
                &mut rng,
                RunOptions::default(),
                &FtConfig::with_timeout(Duration::from_millis(300)),
                |_| {},
            )
        })
        .expect("a silent connection is dropped, not fatal");
        let elapsed = start.elapsed();
        assert!(elapsed < Duration::from_secs(1), "took {elapsed:?}");
        assert_eq!(out.crashed, vec![false, true]);
        assert_eq!(out.outputs, vec![Some(vec![]), None]);
        assert!(out.completed);
    }

    #[test]
    fn participation_breach_by_a_peer_is_a_protocol_error() {
        // Node 1 stays silent while undecided in round 1. Under full
        // participation that is input from a bad peer: the coordinator
        // reports it as an error instead of panicking.
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let alpha = Assignment::private(2);
        let mut rng = StdRng::seed_from_u64(5);
        let result = std::thread::scope(|scope| {
            scope
                .spawn(move || run_node(addr, 0, PostBit::default(), Some(Duration::from_secs(5))));
            scope.spawn(move || raw_peer(addr, 1, |_| Outgoing::Silent));
            run_coordinator::<bool, Vec<bool>, _, _>(
                &listener,
                &Model::Blackboard,
                &alpha,
                6,
                &mut rng,
                RunOptions {
                    full_participation: true,
                },
                &FtConfig::with_timeout(Duration::from_secs(5)),
                |_| {},
            )
        });
        match result {
            Err(NetError::Protocol(what)) => {
                assert!(what.contains("full participation violated"), "{what}");
            }
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }
}
