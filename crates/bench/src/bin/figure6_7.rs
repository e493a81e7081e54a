//! Regenerates Figure 6 (N = 50) and Figure 7 (N = 100) of the paper:
//! the `Jsum`/`Jmax` score panels and the speedup of the simulated
//! `MPI_Neighbor_alltoall` exchange over the blocked mapping on the three
//! machine models, for all three stencils and message sizes 1 KiB – 4 MiB.
//!
//! ```text
//! cargo run --release -p stencil-bench --bin figure6_7 -- --nodes 50
//! cargo run --release -p stencil-bench --bin figure6_7 -- --nodes 100 --quick
//! cargo run --release -p stencil-bench --bin figure6_7 -- --nodes 50 --json out.json
//! ```

use stencil_bench::arg_value;
use stencil_bench::figures::{figure67, Figure67Config};
use stencil_bench::report::ToJson;
use stencil_bench::report::{ascii_bar, format_markdown_table, format_seconds};
use stencil_serve::json::Value;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let nodes = arg_value(&args, "--nodes")
        .and_then(|v| v.parse().ok())
        .unwrap_or(50usize);
    let quick = args.iter().any(|a| a == "--quick");
    let json_path = arg_value(&args, "--json");

    let cfg = if quick {
        Figure67Config {
            nodes,
            ..Figure67Config::quick(nodes)
        }
    } else {
        Figure67Config::paper(nodes)
    };

    eprintln!(
        "figure6_7: N = {nodes}, machines = {:?}, {} message sizes{}",
        cfg.machines
            .iter()
            .map(|m| m.name.clone())
            .collect::<Vec<_>>(),
        cfg.message_sizes.len(),
        if quick { " (quick mode)" } else { "" }
    );

    let (scores, rows) = figure67(&cfg);

    // ---- score panels (left column of the figure) --------------------------
    println!(
        "# Figure {} — mapping scores (N = {nodes}, p/node = 48)\n",
        if nodes == 50 { "6" } else { "7" }
    );
    let mut current_stencil = String::new();
    let mut table_rows: Vec<Vec<String>> = Vec::new();
    for s in &scores {
        if s.stencil != current_stencil {
            if !table_rows.is_empty() {
                println!(
                    "{}",
                    format_markdown_table(&["algorithm", "Jsum", "Jmax"], &table_rows)
                );
                table_rows.clear();
            }
            current_stencil = s.stencil.clone();
            println!("## {} stencil\n", s.stencil);
        }
        table_rows.push(vec![
            s.algorithm.clone(),
            s.j_sum.to_string(),
            s.j_max.to_string(),
        ]);
    }
    if !table_rows.is_empty() {
        println!(
            "{}",
            format_markdown_table(&["algorithm", "Jsum", "Jmax"], &table_rows)
        );
    }

    // ---- speedup panels ----------------------------------------------------
    println!("\n# Speedup over the blocked mapping\n");
    for machine in &cfg.machines {
        for stencil in [
            "Nearest neighbor",
            "Nearest neighbor with hops",
            "Component",
        ] {
            let subset: Vec<_> = rows
                .iter()
                .filter(|r| r.machine == machine.name && r.stencil == stencil)
                .collect();
            if subset.is_empty() {
                continue;
            }
            println!("## {} — {} stencil\n", machine.name, stencil);
            let max_speedup = subset.iter().map(|r| r.speedup).fold(1.0f64, f64::max);
            let mut table: Vec<Vec<String>> = Vec::new();
            for r in &subset {
                table.push(vec![
                    r.algorithm.clone(),
                    r.message_size.to_string(),
                    format_seconds(r.mean_time),
                    format_seconds(r.blocked_time),
                    format!("{:.2}x", r.speedup),
                    ascii_bar(r.speedup, max_speedup, 30),
                ]);
            }
            println!(
                "{}",
                format_markdown_table(
                    &[
                        "algorithm",
                        "msg size [B]",
                        "time",
                        "blocked",
                        "speedup",
                        ""
                    ],
                    &table
                )
            );
        }
    }

    if let Some(path) = json_path {
        let payload = Value::obj(vec![
            ("nodes", Value::Num(nodes as f64)),
            ("scores", scores.to_json()),
            ("speedups", rows.to_json()),
        ]);
        std::fs::write(&path, payload.pretty())
            .unwrap_or_else(|e| eprintln!("could not write {path}: {e}"));
        eprintln!("wrote {path}");
    }
}
