//! Self-test: a tiny run of every workload, untraced and traced, must
//! verify its outputs and emit exactly the metrics `BENCHMARK.json` names,
//! each with its declared unit. A metric cannot be dropped or renamed
//! without this test failing.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// A JSON value, enough of it to read `BENCHMARK.json` and result lines.
#[derive(Debug, Clone)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            _ => panic!("not an object, looking up {key}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }
}

fn parse(text: &str) -> Json {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let v = value(bytes, &mut pos);
    skip_ws(bytes, &mut pos);
    assert_eq!(pos, bytes.len(), "trailing characters after JSON");
    v
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && b[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn value(b: &[u8], pos: &mut usize) -> Json {
    skip_ws(b, pos);
    match b[*pos] {
        b'{' => {
            *pos += 1;
            let mut m = BTreeMap::new();
            loop {
                skip_ws(b, pos);
                if b[*pos] == b'}' {
                    *pos += 1;
                    return Json::Obj(m);
                }
                let Json::Str(k) = value(b, pos) else {
                    panic!("object key")
                };
                skip_ws(b, pos);
                assert_eq!(b[*pos], b':');
                *pos += 1;
                let v = value(b, pos);
                assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k}");
                skip_ws(b, pos);
                if b[*pos] == b',' {
                    *pos += 1;
                }
            }
        }
        b'[' => {
            *pos += 1;
            let mut a = Vec::new();
            loop {
                skip_ws(b, pos);
                if b[*pos] == b']' {
                    *pos += 1;
                    return Json::Arr(a);
                }
                a.push(value(b, pos));
                skip_ws(b, pos);
                if b[*pos] == b',' {
                    *pos += 1;
                }
            }
        }
        b'"' => {
            let start = *pos + 1;
            let end = start
                + b[start..]
                    .iter()
                    .position(|&c| c == b'"')
                    .expect("closing quote");
            *pos = end + 1;
            Json::Str(String::from_utf8(b[start..end].to_vec()).expect("utf-8"))
        }
        b't' | b'f' | b'n' => {
            let word = if b[*pos..].starts_with(b"true") {
                "true"
            } else if b[*pos..].starts_with(b"false") {
                "false"
            } else {
                "null"
            };
            *pos += word.len();
            match word {
                "true" => Json::Bool(true),
                "false" => Json::Bool(false),
                _ => Json::Null,
            }
        }
        _ => {
            let start = *pos;
            while *pos < b.len() && b"+-.eE0123456789".contains(&b[*pos]) {
                *pos += 1;
            }
            let s = std::str::from_utf8(&b[start..*pos]).expect("ascii number");
            Json::Num(s.parse().unwrap_or_else(|_| panic!("bad number {s}")))
        }
    }
}

/// `(name, unit)` of each metric in a `BENCHMARK.json` list.
fn declared(bench: &Json, list: &str) -> Vec<(String, String)> {
    let Json::Arr(items) = bench.get(list) else {
        panic!("{list} is a list")
    };
    items
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

fn run(workload: &str, trace: &str, dir: &Path) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_robustore-e2ebench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--tiny",
        ])
        .current_dir(dir)
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload} trace {trace} exited {:?}",
        out.status
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    parse(last)
}

#[test]
fn every_workload_emits_every_declared_metric_and_verifies() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let text = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let bench = parse(&text);
    let Json::Arr(workloads) = bench.get("workloads") else {
        panic!("workloads is a list")
    };
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("selftest");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    for w in workloads {
        let name = w.get("name").str();
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let result = run(name, trace, &dir);
            assert!(
                matches!(result.get("correct"), Json::Bool(true)),
                "{name}/{trace}: {result:?}"
            );
            assert!(
                matches!(result.get("failed"), Json::Num(f) if *f == 0.0),
                "{name}/{trace} failed ops"
            );
            assert!(matches!(result.get("attempted"), Json::Num(a) if *a >= 1.0));
            let Json::Obj(metrics) = result.get("metrics") else {
                panic!("metrics object")
            };
            let want = declared(&bench, list);
            let got: Vec<&String> = metrics.keys().collect();
            let mut want_names: Vec<&String> = want.iter().map(|(n, _)| n).collect();
            want_names.sort();
            assert_eq!(
                got, want_names,
                "{name} trace {trace}: emitted metrics differ from {list}"
            );
            for (metric, unit) in &want {
                let m = result.get("metrics").get(metric);
                assert_eq!(m.get("unit").str(), unit, "{name}: unit of {metric}");
                let Json::Num(v) = m.get("value") else {
                    panic!("{metric} is a number")
                };
                assert!(v.is_finite(), "{name}: {metric} = {v}");
                if trace == "0" {
                    assert!(*v > 0.0, "{name}: end-to-end {metric} must never be 0");
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
