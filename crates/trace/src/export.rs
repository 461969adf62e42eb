//! Trace exporters: Chrome trace-event JSON (Perfetto) and compact binary.

use std::fmt::Write as _;

use crate::event::{TraceEvent, Track};
use crate::tracer::Tracer;

/// Binary-export magic: "RaMBda Trace".
const MAGIC: &[u8; 4] = b"RMBT";
/// Binary-export format version.
const VERSION: u32 = 1;

/// Formats picoseconds as the microsecond float Chrome's `ts`/`dur` expect,
/// using the shortest round-trip representation (same rule as the metrics
/// JSON encoder, so output is deterministic).
fn us(ps: u64) -> String {
    format!("{:?}", ps as f64 / 1.0e6)
}

impl Tracer {
    /// Renders the ring as Chrome trace-event JSON, loadable in Perfetto
    /// (`ui.perfetto.dev`) or `chrome://tracing`.
    ///
    /// Layout: one process (`rambda-sim`), one named thread per [`Track`]
    /// present in the trace. Leg spans become `ph:"X"` duration events on
    /// their track's thread; requests become `ph:"b"`/`ph:"e"` async pairs
    /// (category `req`), so Perfetto draws the full issue→completion
    /// interval above the per-resource legs; counter samples become
    /// `ph:"C"` counter series, plus a derived `outstanding_requests`
    /// series computed from the request intervals at each sample instant.
    ///
    /// The output is a pure function of the recorded events — byte-identical
    /// across runs of the same seed.
    pub fn export_chrome_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.len() * 96);
        out.push_str("{\"traceEvents\": [\n");
        let mut first = true;
        let mut emit = |line: String, out: &mut String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str("  ");
            out.push_str(&line);
        };

        emit(
            "{\"ph\": \"M\", \"pid\": 1, \"name\": \"process_name\", \"args\": {\"name\": \"rambda-sim\"}}"
                .to_string(),
            &mut out,
        );
        let mut present = [false; 8];
        for ev in self.events() {
            if let TraceEvent::Span { track, .. } = ev {
                present[*track as usize] = true;
            }
        }
        for track in Track::ALL {
            if present[track as usize] {
                emit(
                    format!(
                        "{{\"ph\": \"M\", \"pid\": 1, \"tid\": {}, \"name\": \"thread_name\", \
                         \"args\": {{\"name\": \"{}\"}}}}",
                        track.id(),
                        track.name()
                    ),
                    &mut out,
                );
            }
        }

        let mut sample_ticks: Vec<u64> = Vec::new();
        for ev in self.events() {
            match ev {
                TraceEvent::Span { parent, req, track, stage, start_ps, end_ps, .. } => emit(
                    format!(
                        "{{\"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {}, \"dur\": {}, \
                         \"name\": \"{}\", \"args\": {{\"req\": {}, \"parent\": {}}}}}",
                        track.id(),
                        us(*start_ps),
                        us(end_ps - start_ps),
                        stage,
                        req,
                        parent
                    ),
                    &mut out,
                ),
                TraceEvent::Request { req, start_ps, end_ps, .. } => {
                    emit(
                        format!(
                            "{{\"ph\": \"b\", \"cat\": \"req\", \"id\": {req}, \"pid\": 1, \"tid\": 0, \
                             \"ts\": {}, \"name\": \"request\"}}",
                            us(*start_ps)
                        ),
                        &mut out,
                    );
                    emit(
                        format!(
                            "{{\"ph\": \"e\", \"cat\": \"req\", \"id\": {req}, \"pid\": 1, \"tid\": 0, \
                             \"ts\": {}, \"name\": \"request\"}}",
                            us(*end_ps)
                        ),
                        &mut out,
                    );
                }
                TraceEvent::Sample { name, at_ps, value } => {
                    sample_ticks.push(*at_ps);
                    emit(
                        format!(
                            "{{\"ph\": \"C\", \"pid\": 1, \"ts\": {}, \"name\": \"{name}\", \
                             \"args\": {{\"value\": {value}}}}}",
                            us(*at_ps)
                        ),
                        &mut out,
                    );
                }
                TraceEvent::Fault { kind, at_ps, from, to } => emit(
                    format!(
                        "{{\"ph\": \"i\", \"pid\": 1, \"tid\": {}, \"ts\": {}, \"s\": \"p\", \
                         \"name\": \"fault:{kind}\", \"args\": {{\"from\": {from}, \"to\": {to}}}}}",
                        Track::Fabric.id(),
                        us(*at_ps)
                    ),
                    &mut out,
                ),
            }
        }

        // Derived counter: requests in flight at each sample instant, from a
        // sweep over the recorded request intervals.
        sample_ticks.sort_unstable();
        sample_ticks.dedup();
        if !sample_ticks.is_empty() {
            let mut edges: Vec<(u64, i64)> = Vec::new();
            for ev in self.events() {
                if let TraceEvent::Request { start_ps, end_ps, .. } = ev {
                    edges.push((*start_ps, 1));
                    edges.push((*end_ps, -1));
                }
            }
            edges.sort_unstable();
            let mut outstanding: i64 = 0;
            let mut next_edge = 0usize;
            for tick in sample_ticks {
                while next_edge < edges.len() && edges[next_edge].0 <= tick {
                    outstanding += edges[next_edge].1;
                    next_edge += 1;
                }
                emit(
                    format!(
                        "{{\"ph\": \"C\", \"pid\": 1, \"ts\": {}, \"name\": \"outstanding_requests\", \
                         \"args\": {{\"value\": {outstanding}}}}}",
                        us(tick)
                    ),
                    &mut out,
                );
            }
        }

        out.push_str("\n]}");
        out
    }

    /// Renders the ring as a compact, versioned binary blob for the
    /// determinism tests to byte-compare: `"RMBT"` magic, `u32` version,
    /// `u64` event count, tagged fixed-layout records (all integers
    /// little-endian, strings length-prefixed), and a trailing `u64` count
    /// of dropped events.
    pub fn export_binary(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.len() * 48);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(self.len() as u64).to_le_bytes());
        for ev in self.events() {
            match ev {
                TraceEvent::Span { id, parent, req, track, stage, start_ps, end_ps } => {
                    out.push(1);
                    out.extend_from_slice(&id.to_le_bytes());
                    out.extend_from_slice(&parent.to_le_bytes());
                    out.extend_from_slice(&req.to_le_bytes());
                    out.push(track.id());
                    push_str(&mut out, stage);
                    out.extend_from_slice(&start_ps.to_le_bytes());
                    out.extend_from_slice(&end_ps.to_le_bytes());
                }
                TraceEvent::Request { id, req, start_ps, end_ps } => {
                    out.push(2);
                    out.extend_from_slice(&id.to_le_bytes());
                    out.extend_from_slice(&req.to_le_bytes());
                    out.extend_from_slice(&start_ps.to_le_bytes());
                    out.extend_from_slice(&end_ps.to_le_bytes());
                }
                TraceEvent::Sample { name, at_ps, value } => {
                    out.push(3);
                    push_str(&mut out, name);
                    out.extend_from_slice(&at_ps.to_le_bytes());
                    out.extend_from_slice(&value.to_le_bytes());
                }
                TraceEvent::Fault { kind, at_ps, from, to } => {
                    out.push(4);
                    push_str(&mut out, kind);
                    out.extend_from_slice(&at_ps.to_le_bytes());
                    out.extend_from_slice(&from.to_le_bytes());
                    out.extend_from_slice(&to.to_le_bytes());
                }
            }
        }
        out.extend_from_slice(&self.dropped().to_le_bytes());
        out
    }

    /// Renders a one-line human summary of the ring (event counts by kind),
    /// for log lines around an export.
    pub fn summary(&self) -> String {
        let (mut spans, mut reqs, mut samples, mut faults) = (0u64, 0u64, 0u64, 0u64);
        for ev in self.events() {
            match ev {
                TraceEvent::Span { .. } => spans += 1,
                TraceEvent::Request { .. } => reqs += 1,
                TraceEvent::Sample { .. } => samples += 1,
                TraceEvent::Fault { .. } => faults += 1,
            }
        }
        let mut s = String::new();
        let _ = write!(
            s,
            "{} events ({} spans, {} requests, {} samples, {} faults), {} dropped",
            self.len(),
            spans,
            reqs,
            samples,
            faults,
            self.dropped()
        );
        s
    }
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    let len = u16::try_from(s.len()).expect("trace string over 64 KiB");
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use rambda_des::{SimTime, Span};
    use rambda_metrics::{Json, StageRecorder};

    fn traced() -> Tracer {
        let mut rec = StageRecorder::active();
        let mut tracer = Tracer::bounded(1024, Span::from_us(10));
        for i in 0..4u64 {
            let t0 = SimTime::from_us(i * 12);
            let mut obs = tracer.observe(&mut rec, t0);
            obs.leg("fabric_request", t0 + Span::from_ns(300));
            obs.leg("apu_compute", t0 + Span::from_ns(900));
            obs.finish(t0 + Span::from_ns(900));
            tracer.sample_with(&mut rec, t0 + Span::from_ns(900), |s| s.set("net.bytes", (i + 1) * 64));
        }
        tracer
    }

    #[test]
    fn chrome_json_parses_and_carries_all_event_kinds() {
        let tracer = traced();
        let text = tracer.export_chrome_json();
        let json = Json::parse(&text).expect("chrome export must be valid JSON");
        let events = json.get("traceEvents").expect("traceEvents key");
        let rendered = events.render();
        assert!(rendered.contains("\"process_name\""));
        assert!(rendered.contains("\"fabric\""), "thread metadata for present tracks");
        assert!(rendered.contains("\"ph\": \"X\""));
        assert!(rendered.contains("\"ph\": \"b\""));
        assert!(rendered.contains("\"ph\": \"e\""));
        assert!(rendered.contains("\"ph\": \"C\""));
        assert!(rendered.contains("\"outstanding_requests\""));
        assert!(rendered.contains("\"net.bytes\""));
    }

    #[test]
    fn chrome_json_is_deterministic() {
        assert_eq!(traced().export_chrome_json(), traced().export_chrome_json());
    }

    #[test]
    fn binary_has_magic_version_count_and_footer() {
        let tracer = traced();
        let blob = tracer.export_binary();
        assert_eq!(&blob[0..4], MAGIC);
        assert_eq!(u32::from_le_bytes(blob[4..8].try_into().unwrap()), VERSION);
        let count = u64::from_le_bytes(blob[8..16].try_into().unwrap());
        assert_eq!(count, tracer.len() as u64);
        let dropped = u64::from_le_bytes(blob[blob.len() - 8..].try_into().unwrap());
        assert_eq!(dropped, 0);
        assert_eq!(traced().export_binary(), blob, "binary export must be deterministic");
    }

    #[test]
    fn summary_counts_event_kinds() {
        let s = traced().summary();
        assert!(s.contains("8 spans"), "{s}");
        assert!(s.contains("4 requests"), "{s}");
        assert!(s.contains("0 dropped"), "{s}");
    }

    #[test]
    fn fault_events_export_as_instants() {
        let mut tracer = traced();
        tracer.fault("dropped", SimTime::from_us(5), 0, 1);
        let text = tracer.export_chrome_json();
        assert!(text.contains("\"fault:dropped\""), "{text}");
        assert!(text.contains("\"ph\": \"i\""));
        Json::parse(&text).expect("fault instants keep the export valid JSON");
        let blob = tracer.export_binary();
        assert!(blob.windows(7).any(|w| w == b"dropped"), "binary export carries the fault kind");
        assert!(tracer.summary().contains("1 faults"), "{}", tracer.summary());
    }

    #[test]
    fn empty_tracer_exports_cleanly() {
        let tracer = Tracer::disabled();
        let json = Json::parse(&tracer.export_chrome_json()).unwrap();
        assert!(json.get("traceEvents").is_some());
        let blob = tracer.export_binary();
        assert_eq!(blob.len(), 4 + 4 + 8 + 8);
    }
}
