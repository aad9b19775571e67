//! DESIGN.md and EXPERIMENTS.md within 40,000 bytes; no change named by number there or in
//! README.md (history is CHANGES.md's and git's); every doc citation resolving to a heading.

use std::fs;
use std::path::{Path, PathBuf};

const ROOT: &str = env!("CARGO_MANIFEST_DIR");
const DOCS: [&str; 3] = ["README.md", "DESIGN.md", "EXPERIMENTS.md"];
const SCANNED: [&str; 6] = ["crates", "src", "tests", "examples", "scripts", ".claude"];
/// Dropped with the indent from each line, so a wrapped citation reads whole.
const MARKERS: [char; 5] = ['/', '!', '#', '*', '>'];

fn sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = fs::read_dir(dir).into_iter().flatten().flatten();
    for path in entries.map(|e| e.path()) {
        let ext = path.extension().and_then(|e| e.to_str());
        if path.is_dir() && !path.ends_with("target") {
            sources(&path, out);
        } else if matches!(ext, Some("rs" | "sh" | "md")) {
            out.push(path);
        }
    }
}

fn headings(doc: &str) -> Vec<String> {
    let text = fs::read_to_string(Path::new(ROOT).join(doc)).unwrap();
    let heads = text.lines().filter(|l| l.starts_with('#'));
    heads.map(|l| l.trim_matches('#').trim().into()).collect()
}

fn after<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
    let found = text.match_indices(key);
    found.map(|(i, _)| &text[i + key.len()..]).collect()
}

#[test]
fn the_docs_keep_their_budget_and_name_no_change_by_number() {
    for doc in DOCS {
        let text = fs::read_to_string(Path::new(ROOT).join(doc)).unwrap();
        let over = doc != "README.md" && text.len() > 40_000;
        assert!(!over, "{doc} is over 40,000 bytes");
        for (i, _) in text.match_indices("PR") {
            let word = !text[..i].ends_with(char::is_alphanumeric);
            let number = text[i + 2..].trim_start_matches('s').strip_prefix(' ');
            let numbered = number.is_some_and(|n| n.starts_with(|c: char| c.is_ascii_digit()));
            assert!(!(word && numbered), "{doc}: {}", &text[i..i + 4]);
        }
    }
}

#[test]
fn every_doc_citation_resolves_to_a_heading() {
    let (design, experiments) = (headings("DESIGN.md"), headings("EXPERIMENTS.md"));
    let mut files: Vec<PathBuf> = DOCS.iter().map(|d| Path::new(ROOT).join(d)).collect();
    for dir in SCANNED {
        sources(&Path::new(ROOT).join(dir), &mut files);
    }
    let mut broken = Vec::new();
    for path in &files {
        let text = fs::read_to_string(path).unwrap();
        let lines = text.lines().map(|l| l.trim().trim_start_matches(MARKERS));
        let text = lines.map(str::trim).collect::<Vec<_>>().join(" ");
        for tail in after(&text, "DESIGN.md §") {
            let end = tail.find(|c: char| !c.is_ascii_digit() && c != '.');
            let n = tail[..end.unwrap_or(tail.len())].trim_end_matches('.');
            let head = format!("{n}{}", if n.contains('.') { " " } else { ". " });
            if !n.is_empty() && !design.iter().any(|h| h.starts_with(&head)) {
                broken.push(format!("{}: DESIGN.md §{n}", path.display()));
            }
        }
        for tail in after(&text, "EXPERIMENTS.md") {
            let quoted = tail.trim_start_matches(',').strip_prefix(" \"");
            let name = quoted.and_then(|q| q.split('"').next());
            if let Some(n) = name.filter(|n| !experiments.iter().any(|h| h.contains(n))) {
                broken.push(format!("{}: EXPERIMENTS.md {n:?}", path.display()));
            }
        }
    }
    assert!(broken.is_empty(), "citations with no heading: {broken:#?}");
}
