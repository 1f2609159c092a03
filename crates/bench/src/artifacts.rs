//! Machine-readable artifacts for the repro harness.
//!
//! The `repro` binary prints the paper-style comparison to stdout; this
//! module renders the same measurements as JSON documents — one per
//! figure/table — so CI and plotting scripts consume exactly the numbers
//! the console showed. The schema is hand-rolled on top of
//! [`hilti_rt::telemetry::json`] (the repo takes no serde dependency) and
//! every document is validated before it is returned.
//!
//! Artifact → evaluation mapping:
//!
//! | file          | reproduces | content                                    |
//! |---------------|------------|--------------------------------------------|
//! | `fig9.json`   | Figure 9   | parser CPU breakdown per component         |
//! | `fig10.json`  | Figure 10  | script-engine CPU breakdown per component  |
//! | `table2.json` | Table 2    | Std vs BinPAC++ log agreement              |
//! | `table3.json` | Table 3    | interpreter vs compiled log agreement      |
//!
//! Component keys are those of [`Breakdown::components`]:
//! `protocol_parsing`, `script_execution`, `glue`, `other` — all four are
//! always present, so downstream scripts never need existence checks, and
//! `total_ns` is their sum.

use std::fmt::Write as _;

use broscript::pipeline::AnalysisResult;
use hilti_rt::telemetry::json;

use crate::experiments::{
    table_rows_dns, table_rows_http, Breakdown, EngineComparison, ParserComparison, TableRow,
};

/// One side of a breakdown figure: total plus per-component ns and share.
fn breakdown_json(r: &AnalysisResult) -> String {
    let b = Breakdown::of(r);
    let total = b.total_ns();
    let mut s = String::from("{");
    let _ = write!(s, "\"total_ns\":{total},\"components\":{{");
    for (i, (key, _, ns)) in b.components().into_iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{}:{{\"ns\":{ns},\"pct\":{:.2}}}",
            json::quote(key),
            ratio(ns, total) * 100.0
        );
    }
    s.push_str("}}");
    s
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

/// Figure 9: parser CPU time by component, Standard vs BinPAC++ stacks.
pub fn fig9_json(http: &ParserComparison, dns: &ParserComparison) -> String {
    let mut s =
        String::from("{\"schema\":\"hilti.repro.fig9.v1\",\"figure\":\"9\",\"protocols\":{");
    for (i, (proto, c)) in [("http", http), ("dns", dns)].iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{}:{{\"standard\":{},\"binpac\":{},\"parsing_ratio_pac_over_std\":{:.4}}}",
            json::quote(proto),
            breakdown_json(&c.std_result),
            breakdown_json(&c.pac_result),
            ratio(
                Breakdown::of(&c.pac_result).parsing,
                Breakdown::of(&c.std_result).parsing
            )
        );
    }
    s.push_str("}}");
    finish(s)
}

/// Figure 10: script-execution CPU time by component, interpreter vs
/// compiled scripts.
pub fn fig10_json(http: &EngineComparison, dns: &EngineComparison) -> String {
    let mut s =
        String::from("{\"schema\":\"hilti.repro.fig10.v1\",\"figure\":\"10\",\"protocols\":{");
    for (i, (proto, c)) in [("http", http), ("dns", dns)].iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{}:{{\"interpreted\":{},\"compiled\":{},\"script_ratio_hlt_over_std\":{:.4}}}",
            json::quote(proto),
            breakdown_json(&c.interp_result),
            breakdown_json(&c.compiled_result),
            ratio(
                Breakdown::of(&c.compiled_result).script,
                Breakdown::of(&c.interp_result).script
            )
        );
    }
    s.push_str("}}");
    finish(s)
}

fn rows_json(rows: &[TableRow]) -> String {
    let mut s = String::from("[");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"log\":{},\"lines_a\":{},\"lines_b\":{},\"identical_pct\":{:.2}}}",
            json::quote(row.log),
            row.total_a,
            row.total_b,
            row.identical_pct
        );
    }
    s.push(']');
    s
}

/// Table 2: Std vs BinPAC++ parser log agreement.
pub fn table2_json(http: &ParserComparison, dns: &ParserComparison) -> String {
    let mut rows = table_rows_http(http);
    rows.extend(table_rows_dns(dns));
    let s = format!(
        "{{\"schema\":\"hilti.repro.table2.v1\",\"table\":\"2\",\"sides\":[\"standard\",\"binpac\"],\"rows\":{}}}",
        rows_json(&rows)
    );
    finish(s)
}

/// Table 3: interpreter vs compiled script log agreement.
pub fn table3_json(http: &EngineComparison, dns: &EngineComparison) -> String {
    let rows = [
        (
            "http.log",
            &http.interp_result.http_log,
            &http.compiled_result.http_log,
            &http.http_agreement,
        ),
        (
            "files.log",
            &http.interp_result.files_log,
            &http.compiled_result.files_log,
            &http.files_agreement,
        ),
        (
            "dns.log",
            &dns.interp_result.dns_log,
            &dns.compiled_result.dns_log,
            &dns.dns_agreement,
        ),
    ]
    .map(|(log, a, b, ag)| TableRow {
        log,
        total_a: a.len(),
        total_b: b.len(),
        identical_pct: ag.percent(),
    });
    let s = format!(
        "{{\"schema\":\"hilti.repro.table3.v1\",\"table\":\"3\",\"sides\":[\"interpreted\",\"compiled\"],\"rows\":{}}}",
        rows_json(&rows)
    );
    finish(s)
}

/// Validates a rendered document; a malformed artifact is a bug, not data.
fn finish(s: String) -> String {
    if let Err(e) = json::validate(&s) {
        panic!("internal error: artifact JSON failed validation: {e}\n{s}");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{
        dns_workload, engine_comparison_dns, engine_comparison_http, http_workload,
        parser_comparison_dns, parser_comparison_http,
    };

    #[test]
    fn fig9_and_table2_render_and_validate() {
        let http = http_workload();
        let dns = dns_workload();
        let ch = parser_comparison_http(&http).unwrap();
        let cd = parser_comparison_dns(&dns).unwrap();
        let fig9 = fig9_json(&ch, &cd);
        json::validate(&fig9).unwrap();
        for key in ["protocol_parsing", "script_execution", "glue", "other"] {
            assert!(
                fig9.contains(&format!("\"{key}\"")),
                "{key} missing\n{fig9}"
            );
        }
        assert!(fig9.contains("\"http\"") && fig9.contains("\"dns\""));
        let t2 = table2_json(&ch, &cd);
        json::validate(&t2).unwrap();
        assert!(t2.contains("\"http.log\"") && t2.contains("\"dns.log\""));
    }

    #[test]
    fn fig10_and_table3_render_and_validate() {
        let http = http_workload();
        let dns = dns_workload();
        let eh = engine_comparison_http(&http).unwrap();
        let ed = engine_comparison_dns(&dns).unwrap();
        let fig10 = fig10_json(&eh, &ed);
        json::validate(&fig10).unwrap();
        assert!(fig10.contains("\"interpreted\"") && fig10.contains("\"compiled\""));
        let t3 = table3_json(&eh, &ed);
        json::validate(&t3).unwrap();
        assert!(t3.contains("\"files.log\""));
    }

    #[test]
    fn component_totals_in_fig9_match_the_recorder() {
        // The artifact must carry exactly the numbers the console printed:
        // per-component ns from the recorder's stage sums, and their total.
        let http = http_workload();
        let c = parser_comparison_http(&http).unwrap();
        for r in [&c.std_result, &c.pac_result] {
            let (b, doc) = (Breakdown::of(r), breakdown_json(r));
            assert!(doc.starts_with(&format!("{{\"total_ns\":{},", b.total_ns())));
            for (key, _, ns) in b.components() {
                let needle = format!("\"{key}\":{{\"ns\":{ns},");
                assert!(doc.contains(&needle), "{needle} not in {doc}");
            }
        }
        // Glue is where HILTI meets Bro: the BinPAC++ stack's hooks only.
        assert_eq!(Breakdown::of(&c.std_result).glue, 0);
        assert!(Breakdown::of(&c.pac_result).glue > 0);
    }
}
