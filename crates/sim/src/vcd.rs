//! Value-Change-Dump (VCD, IEEE 1364) export of recorded traces.
//!
//! VCD is the lingua franca of digital waveform viewers; dumping the
//! simulated interface signals lets the clock-division behaviour of
//! Fig. 2 be inspected in GTKWave exactly as one would inspect the FPGA
//! prototype with a logic analyser.

use std::collections::BTreeMap;
use std::io::{self, Write};

use crate::trace::{TraceValue, Tracer};

/// Writes `tracer`'s signals and changes as a VCD document.
///
/// Signals are grouped into `$scope module ... $end` sections by their
/// declared dot-separated scope. The timescale is 1 ps to match the
/// kernel's time base.
///
/// # Errors
///
/// Propagates any I/O error from `out`. Note a `&mut Vec<u8>` or
/// `&mut File` can be passed wherever a `W: Write` is expected.
///
/// # Examples
///
/// ```
/// use aetr_sim::time::SimTime;
/// use aetr_sim::trace::{TraceValue, Tracer};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut tracer = Tracer::new();
/// let clk = tracer.declare_bit("clk", "top");
/// tracer.record(SimTime::from_ns(1), clk, TraceValue::Bit(true));
///
/// let mut buf = Vec::new();
/// aetr_sim::vcd::write_vcd(&tracer, &mut buf)?;
/// let text = String::from_utf8(buf)?;
/// assert!(text.contains("$timescale 1 ps $end"));
/// assert!(text.contains("clk"));
/// # Ok(())
/// # }
/// ```
pub fn write_vcd<W: Write>(tracer: &Tracer, mut out: W) -> io::Result<()> {
    writeln!(out, "$date AETR simulation $end")?;
    writeln!(out, "$version aetr-sim $end")?;
    writeln!(out, "$timescale 1 ps $end")?;

    // Group signal indices by scope for the declaration section.
    let mut by_scope: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (idx, decl) in tracer.signals().iter().enumerate() {
        by_scope.entry(decl.scope.as_str()).or_default().push(idx);
    }

    for (scope, indices) in &by_scope {
        let scope_name = if scope.is_empty() { "top" } else { scope };
        for part in scope_name.split('.') {
            writeln!(out, "$scope module {part} $end")?;
        }
        for &idx in indices {
            writeln!(out, "$var wire 1 {} {} $end", id_code(idx), tracer.signals()[idx].name)?;
        }
        for _ in scope_name.split('.') {
            writeln!(out, "$upscope $end")?;
        }
    }
    writeln!(out, "$enddefinitions $end")?;

    // Initial values: everything unknown until first change.
    writeln!(out, "$dumpvars")?;
    for idx in 0..tracer.signals().len() {
        writeln!(out, "x{}", id_code(idx))?;
    }
    writeln!(out, "$end")?;

    // Change section: changes are recorded in time order per signal; we
    // emit them globally time-sorted (stable to preserve record order).
    let mut changes: Vec<_> = tracer.changes().iter().collect();
    changes.sort_by_key(|c| c.time);
    let mut current_time = None;
    for change in changes {
        if current_time != Some(change.time) {
            writeln!(out, "#{}", change.time.as_ps())?;
            current_time = Some(change.time);
        }
        let TraceValue::Bit(b) = change.value;
        writeln!(out, "{}{}", u8::from(b), id_code(tracer.index_of(change.signal)))?;
    }
    Ok(())
}

/// Maps a signal index to a printable VCD identifier code (base-94 over
/// ASCII `!`..`~`).
fn id_code(mut idx: usize) -> String {
    let mut code = String::new();
    loop {
        code.push((b'!' + (idx % 94) as u8) as char);
        idx /= 94;
        if idx == 0 {
            break;
        }
        idx -= 1;
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn render(tracer: &Tracer) -> String {
        let mut buf = Vec::new();
        write_vcd(tracer, &mut buf).unwrap();
        String::from_utf8(buf).unwrap()
    }

    #[test]
    fn id_codes_are_unique_and_printable() {
        let mut seen = std::collections::HashSet::new();
        for idx in 0..10_000 {
            let code = id_code(idx);
            assert!(code.bytes().all(|b| (b'!'..=b'~').contains(&b)));
            assert!(seen.insert(code), "duplicate code at {idx}");
        }
    }

    #[test]
    fn empty_tracer_writes_only_the_header() {
        assert_eq!(
            render(&Tracer::new()),
            "$date AETR simulation $end\n\
             $version aetr-sim $end\n\
             $timescale 1 ps $end\n\
             $enddefinitions $end\n\
             $dumpvars\n\
             $end\n"
        );
    }

    #[test]
    fn header_and_var_declarations() {
        let mut t = Tracer::new();
        t.declare_bit("req", "aer");
        t.declare_bit("ack", "aer");
        assert_eq!(
            render(&t),
            "$date AETR simulation $end\n\
             $version aetr-sim $end\n\
             $timescale 1 ps $end\n\
             $scope module aer $end\n\
             $var wire 1 ! req $end\n\
             $var wire 1 \" ack $end\n\
             $upscope $end\n\
             $enddefinitions $end\n\
             $dumpvars\n\
             x!\n\
             x\"\n\
             $end\n"
        );
    }

    #[test]
    fn golden_document_for_bit_signals() {
        let mut t = Tracer::new();
        let req = t.declare_bit("req", "aer");
        let clk = t.declare_bit("clk", "");
        let ack = t.declare_bit("ack", "aer");
        t.record(SimTime::ZERO, clk, TraceValue::Bit(false));
        t.record(SimTime::from_ps(100), req, TraceValue::Bit(true));
        t.record(SimTime::from_ps(100), clk, TraceValue::Bit(true));
        t.record(SimTime::from_ps(250), ack, TraceValue::Bit(true));
        t.record(SimTime::from_ps(250), req, TraceValue::Bit(false));
        // Declarations are grouped by scope (the empty scope as `top`,
        // sorted first), every signal starts unknown in `$dumpvars`, and
        // changes sharing a time share one `#time` line, in record order.
        assert_eq!(
            render(&t),
            "$date AETR simulation $end\n\
             $version aetr-sim $end\n\
             $timescale 1 ps $end\n\
             $scope module top $end\n\
             $var wire 1 \" clk $end\n\
             $upscope $end\n\
             $scope module aer $end\n\
             $var wire 1 ! req $end\n\
             $var wire 1 # ack $end\n\
             $upscope $end\n\
             $enddefinitions $end\n\
             $dumpvars\n\
             x!\n\
             x\"\n\
             x#\n\
             $end\n\
             #0\n\
             0\"\n\
             #100\n\
             1!\n\
             1\"\n\
             #250\n\
             1#\n\
             0!\n"
        );
    }

    #[test]
    fn changes_are_grouped_by_time() {
        let mut t = Tracer::new();
        let a = t.declare_bit("a", "");
        let b = t.declare_bit("b", "");
        t.record(SimTime::from_ps(100), a, TraceValue::Bit(true));
        t.record(SimTime::from_ps(100), b, TraceValue::Bit(true));
        t.record(SimTime::from_ps(250), a, TraceValue::Bit(false));
        let text = render(&t);
        assert!(text.ends_with("$end\n#100\n1!\n1\"\n#250\n0!\n"), "{text}");
        assert_eq!(text.matches("#100").count(), 1, "shared timestamps emitted once");
    }

    #[test]
    fn changes_are_sorted_by_time_across_signals() {
        let mut t = Tracer::new();
        let a = t.declare_bit("a", "");
        let b = t.declare_bit("b", "");
        t.record(SimTime::from_ps(300), a, TraceValue::Bit(true));
        t.record(SimTime::from_ps(200), b, TraceValue::Bit(true));
        let text = render(&t);
        let changes = &text[text.find("$dumpvars").unwrap()..];
        assert!(changes.ends_with("$end\n#200\n1\"\n#300\n1!\n"), "{changes}");
    }

    #[test]
    fn nested_scopes_open_and_close() {
        let mut t = Tracer::new();
        t.declare_bit("clk", "interface.clockgen");
        let text = render(&t);
        assert!(text.contains(
            "$scope module interface $end\n\
             $scope module clockgen $end\n\
             $var wire 1 ! clk $end\n\
             $upscope $end\n\
             $upscope $end\n"
        ));
    }
}
