//! The `SHRTRC01` trace format: the one encoder and the one decoder of the
//! flight recorder's export.
//!
//! [`Multicomputer::export_trace_bin`](crate::Multicomputer::export_trace_bin)
//! is the only trace writer; every reader (the `shrimp_trace` analyzer,
//! its offline Perfetto rendering, the tests) goes through
//! [`TraceFile::decode`].
//!
//! Layout (all integers little-endian):
//!
//! | offset | bytes | field |
//! |--------|-------|-------|
//! | 0      | 8     | magic `"SHRTRC01"` |
//! | 8      | 2     | node count |
//! | 10     | 2     | reserved (0) |
//! | 12     | 4     | span count `N` |
//! | 16     | 8     | total spans recorded (≥ `N`; ring may drop) |
//! | 24     | 8     | spans dropped |
//! | 32     | 5×32  | per stage: `u64` count, min ns, max ns, `f64` mean bits |
//! | 192    | N×64  | spans: `u64` id, `u16` src, `u16` dst, `u32` bytes, 6×`u64` stage-boundary ns |

use shrimp_sim::{SimTime, SpanRecord, XferId, STAGE_COUNT};

/// Per-stage latency summary from the recorder's histograms (ns).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StageSummary {
    /// Spans the stage histogram saw.
    pub count: u64,
    /// Mean stage duration.
    pub mean_ns: f64,
    /// Shortest stage duration.
    pub min_ns: u64,
    /// Longest stage duration.
    pub max_ns: u64,
}

/// One decoded (or about to be encoded) `SHRTRC01` trace.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceFile {
    /// Nodes in the traced machine.
    pub nodes: u16,
    /// Spans the recorder observed (≥ `spans.len()` once a ring filled).
    pub recorded: u64,
    /// Spans the recorder's rings had no room for.
    pub dropped: u64,
    /// Per-stage summary, in [`Stage::ALL`](shrimp_sim::Stage::ALL) order.
    pub stages: [StageSummary; STAGE_COUNT],
    /// The retained spans, in merge-key `(link_ready, id)` order.
    pub spans: Vec<SpanRecord>,
}

impl TraceFile {
    const MAGIC: &'static [u8; 8] = b"SHRTRC01";
    const HEADER_BYTES: usize = 192;
    const SPAN_BYTES: usize = 64;

    /// Encodes the trace as `SHRTRC01` bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::HEADER_BYTES + self.spans.len() * Self::SPAN_BYTES);
        out.extend_from_slice(Self::MAGIC);
        out.extend_from_slice(&self.nodes.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes());
        out.extend_from_slice(&(self.spans.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.recorded.to_le_bytes());
        out.extend_from_slice(&self.dropped.to_le_bytes());
        for s in &self.stages {
            out.extend_from_slice(&s.count.to_le_bytes());
            out.extend_from_slice(&s.min_ns.to_le_bytes());
            out.extend_from_slice(&s.max_ns.to_le_bytes());
            out.extend_from_slice(&s.mean_ns.to_bits().to_le_bytes());
        }
        for s in &self.spans {
            out.extend_from_slice(&s.id.raw().to_le_bytes());
            out.extend_from_slice(&s.src.to_le_bytes());
            out.extend_from_slice(&s.dst.to_le_bytes());
            out.extend_from_slice(&s.bytes.to_le_bytes());
            for t in [
                s.initiated_at,
                s.queued_at,
                s.link_ready,
                s.wire_done,
                s.delivered_at,
                s.status_at,
            ] {
                out.extend_from_slice(&t.as_nanos().to_le_bytes());
            }
        }
        out
    }

    /// Decodes `SHRTRC01` bytes. Returns `None` for a buffer with the
    /// wrong magic, a short header, or a span count that disagrees with
    /// the bytes that follow — checked before anything is allocated, so
    /// an untrusted header cannot demand a huge buffer.
    pub fn decode(bytes: &[u8]) -> Option<TraceFile> {
        let mut r = Reader { b: bytes };
        if &r.take::<8>()? != Self::MAGIC {
            return None;
        }
        let nodes = r.u16()?;
        let _reserved = r.u16()?;
        let count = r.u32()? as usize;
        let recorded = r.u64()?;
        let dropped = r.u64()?;
        let mut stages = [StageSummary::default(); STAGE_COUNT];
        for s in &mut stages {
            let (count, min_ns, max_ns) = (r.u64()?, r.u64()?, r.u64()?);
            *s = StageSummary { count, mean_ns: f64::from_bits(r.u64()?), min_ns, max_ns };
        }
        if count.checked_mul(Self::SPAN_BYTES)? != r.b.len() {
            return None;
        }
        let mut spans = Vec::with_capacity(count);
        for _ in 0..count {
            let raw = r.u64()?;
            spans.push(SpanRecord {
                id: XferId::new((raw >> 48) as u16, raw),
                src: r.u16()?,
                dst: r.u16()?,
                bytes: r.u32()?,
                initiated_at: r.time()?,
                queued_at: r.time()?,
                link_ready: r.time()?,
                wire_done: r.time()?,
                delivered_at: r.time()?,
                status_at: r.time()?,
            });
        }
        Some(TraceFile { nodes, recorded, dropped, stages, spans })
    }
}

/// Little-endian cursor over a byte slice.
struct Reader<'a> {
    b: &'a [u8],
}

impl Reader<'_> {
    fn take<const N: usize>(&mut self) -> Option<[u8; N]> {
        let (head, rest) = self.b.split_at_checked(N)?;
        self.b = rest;
        head.try_into().ok()
    }
    fn u16(&mut self) -> Option<u16> {
        self.take().map(u16::from_le_bytes)
    }
    fn u32(&mut self) -> Option<u32> {
        self.take().map(u32::from_le_bytes)
    }
    fn u64(&mut self) -> Option<u64> {
        self.take().map(u64::from_le_bytes)
    }
    fn time(&mut self) -> Option<SimTime> {
        self.u64().map(SimTime::from_nanos)
    }
}
