//! `figures NAME [--smoke] [--seed <u64>] [--out <path>]` — print one
//! table or figure of the paper's evaluation (see `repstream_bench`'s
//! docs for the names) aligned to stdout and, with `--out`, as CSV to a
//! file.  Bad arguments, an unknown `NAME` or an `--out` path that cannot
//! be created exit 2 before any figure runs.

use repstream_bench::figures::{Figure, FIGURES};
use std::fs::File;
use std::io::Write;

struct Args {
    figure: Figure,
    smoke: bool,
    seed: u64,
    out: Option<(String, File)>,
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!("usage: figures NAME [--smoke] [--seed <u64>] [--out <path>]");
    let names: Vec<&str> = FIGURES.iter().map(|&(name, _)| name).collect();
    eprintln!("NAME: {}", names.join(" "));
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}

fn parse() -> Args {
    let (mut figure, mut smoke, mut seed, mut out) = (None, false, 2010, None);
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--seed" => {
                seed = argv
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs a u64"));
            }
            "--out" => out = Some(argv.next().unwrap_or_else(|| usage("--out needs a path"))),
            "--help" | "-h" => usage(""),
            flag if flag.starts_with('-') => usage(&format!("unknown flag {flag}")),
            name if figure.is_some() => usage(&format!("one figure at a time, not also {name}")),
            name => match FIGURES.iter().find(|&&(n, _)| n == name) {
                Some(&(_, f)) => figure = Some(f),
                None => usage(&format!("unknown figure {name}")),
            },
        }
    }
    let figure = figure.unwrap_or_else(|| usage("which figure? NAME is missing"));
    let out = out.map(|path| match File::create(&path) {
        Ok(file) => (path, file),
        Err(e) => usage(&format!("cannot create {path}: {e}")),
    });
    Args {
        figure,
        smoke,
        seed,
        out,
    }
}

fn main() {
    let args = parse();
    let table = (args.figure)(args.smoke, args.seed);
    print!("{}", table.render());
    if let Some((path, mut file)) = args.out {
        if let Err(e) = file.write_all(table.csv().as_bytes()) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
    }
}
