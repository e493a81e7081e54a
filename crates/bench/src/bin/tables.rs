//! Regenerates the appendix tables (Tables II–VII) of the paper: the absolute
//! time of the simulated `MPI_Neighbor_alltoall` exchange with 95% confidence
//! intervals, for every stencil, message size and mapping algorithm, on one
//! machine model and node count per invocation.
//!
//! ```text
//! cargo run --release -p stencil-bench --bin tables -- --machine vsc4 --nodes 50      # Table II
//! cargo run --release -p stencil-bench --bin tables -- --machine vsc4 --nodes 100     # Table III
//! cargo run --release -p stencil-bench --bin tables -- --machine supermuc --nodes 50  # Table IV
//! cargo run --release -p stencil-bench --bin tables -- --machine supermuc --nodes 100 # Table V
//! cargo run --release -p stencil-bench --bin tables -- --machine juwels --nodes 50    # Table VI
//! cargo run --release -p stencil-bench --bin tables -- --machine juwels --nodes 100   # Table VII
//! ```

use cluster_sim::Machine;
use stencil_bench::arg_value;
use stencil_bench::figures::{appendix_table, TableConfig};
use stencil_bench::report::ToJson;
use stencil_bench::report::{format_markdown_table, format_seconds};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let machine_name = arg_value(&args, "--machine").unwrap_or_else(|| "vsc4".to_string());
    let nodes = arg_value(&args, "--nodes")
        .and_then(|v| v.parse().ok())
        .unwrap_or(50usize);
    let quick = args.iter().any(|a| a == "--quick");
    let json_path = arg_value(&args, "--json");

    let machine = match machine_name.to_lowercase().as_str() {
        "vsc4" => Machine::vsc4(),
        "supermuc" | "supermuc-ng" | "smuc" => Machine::supermuc_ng(),
        "juwels" => Machine::juwels(),
        other => {
            eprintln!("unknown machine '{other}', expected vsc4 | supermuc | juwels");
            std::process::exit(2);
        }
    };

    let table_number = match (machine.name.as_str(), nodes) {
        ("VSC4", 50) => "II",
        ("VSC4", 100) => "III",
        ("SuperMUC-NG", 50) => "IV",
        ("SuperMUC-NG", 100) => "V",
        ("JUWELS", 50) => "VI",
        ("JUWELS", 100) => "VII",
        _ => "custom",
    };

    let mut cfg = TableConfig::paper(machine.clone(), nodes);
    if quick {
        cfg.message_sizes = vec![64, 4096, 1 << 19];
        cfg.measurement.repetitions = 20;
    }

    eprintln!(
        "tables: Table {table_number} ({} with N = {nodes}, p/node = 48){}",
        machine.name,
        if quick { " (quick mode)" } else { "" }
    );

    let rows = appendix_table(&cfg);

    println!(
        "# Table {table_number}: MPI_Neighbor_alltoall time on {} (N = {nodes}, p = 48)\n",
        machine.name
    );
    for stencil in [
        "Nearest neighbor",
        "Nearest neighbor with hops",
        "Component",
    ] {
        let subset: Vec<_> = rows.iter().filter(|r| r.stencil == stencil).collect();
        if subset.is_empty() {
            continue;
        }
        println!("## {stencil}\n");
        let algorithms: Vec<String> = subset[0]
            .entries
            .iter()
            .map(|(name, _, _)| name.clone())
            .collect();
        let mut header: Vec<&str> = vec!["size [B]"];
        for a in &algorithms {
            header.push(a.as_str());
        }
        let table: Vec<Vec<String>> = subset
            .iter()
            .map(|r| {
                let mut row = vec![r.message_size.to_string()];
                for (_, mean, ci) in &r.entries {
                    row.push(format!(
                        "{} ±{:.1}%",
                        format_seconds(*mean),
                        ci / mean * 100.0
                    ));
                }
                row
            })
            .collect();
        println!("{}", format_markdown_table(&header, &table));
    }

    if let Some(path) = json_path {
        std::fs::write(&path, rows.to_json().pretty())
            .unwrap_or_else(|e| eprintln!("could not write {path}: {e}"));
        eprintln!("wrote {path}");
    }
}
