//! Regenerates Figure 8 of the paper: the distribution of the reduction of
//! `Jsum` and `Jmax` over the blocked mapping on the 144-instance set
//! `I = N × P × D`, for the three stencils.
//!
//! ```text
//! cargo run --release -p stencil-bench --bin figure8
//! cargo run --release -p stencil-bench --bin figure8 -- --quick
//! cargo run --release -p stencil-bench --bin figure8 -- --json fig8.json
//! ```

use stencil_bench::figures::{figure8, Figure8Config};
use stencil_bench::report::format_markdown_table;
use stencil_bench::report::ToJson;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let cfg = if quick {
        Figure8Config::quick()
    } else {
        Figure8Config::paper()
    };
    eprintln!(
        "figure8: {} instances{}",
        cfg.instances.len(),
        if quick { " (quick mode)" } else { "" }
    );

    let rows = figure8(&cfg);

    println!("# Figure 8 — reduction over the blocked mapping (lower is better)\n");
    for stencil in [
        "Nearest neighbor",
        "Nearest neighbor with hops",
        "Component",
    ] {
        let subset: Vec<_> = rows.iter().filter(|r| r.stencil == stencil).collect();
        if subset.is_empty() {
            continue;
        }
        println!("## {stencil} stencil\n");
        let table: Vec<Vec<String>> = subset
            .iter()
            .map(|r| {
                vec![
                    format!("{} {}", r.algorithm, r.metric),
                    format!("{:.3}", r.median),
                    format!("±{:.3}", r.median_ci95),
                    format!("{:.3}", r.q1),
                    format!("{:.3}", r.q3),
                    r.n.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            format_markdown_table(
                &["algorithm / metric", "median", "95% CI", "Q1", "Q3", "n"],
                &table
            )
        );
    }

    // Statistical statement of Section VI-C: the median Jsum reduction of
    // Hyperplane and Stencil Strips is better than Nodecart's when the CIs do
    // not overlap.
    println!("## Median comparison vs. Nodecart (Jsum)\n");
    for stencil in [
        "Nearest neighbor",
        "Nearest neighbor with hops",
        "Component",
    ] {
        let get = |alg: &str| {
            rows.iter()
                .find(|r| r.stencil == stencil && r.algorithm == alg && r.metric == "Jsum")
        };
        if let (Some(nc), Some(hp), Some(ss)) =
            (get("Nodecart"), get("Hyperplane"), get("Stencil Strips"))
        {
            for (name, row) in [("Hyperplane", hp), ("Stencil Strips", ss)] {
                let separated = (row.median + row.median_ci95) < (nc.median - nc.median_ci95);
                println!(
                    "- {stencil}: {name} median {:.3} vs Nodecart {:.3} -> {}",
                    row.median,
                    nc.median,
                    if separated {
                        "statistically better (CIs do not overlap)"
                    } else {
                        "no statistical separation"
                    }
                );
            }
        }
    }

    if let Some(path) = json_path {
        std::fs::write(&path, rows.to_json().pretty())
            .unwrap_or_else(|e| eprintln!("could not write {path}: {e}"));
        eprintln!("wrote {path}");
    }
}
