//! `pub` means something outside the item calls it. This test holds every
//! `pub fn`, `pub const fn` and `pub const` in a product crate's `src/`
//! (every crate under `crates/` but this one) to that rule: its name must
//! occur as a whole word either in code outside that `src/` (another
//! crate, the crate's integration tests, benches, bins or examples) or in
//! the crate's own non-test code beyond its definition.
//!
//! The check is lexical. It reads the workspace's `.rs` files (skipping
//! build output and the vendored stand-ins, which sit outside the
//! workspace) and strips comments, string and char literals and `pub use`
//! statements before it looks for words; inside the item's own crate it
//! also strips every `#[cfg(test)]` item. So a doc comment, a re-export or
//! the crate's own unit test never counts as a caller. Another crate's
//! unit test does, since it can reach the item only while the item is
//! `pub`, but only through a path or a method call (`::name`, `.name`):
//! test code is full of local names. Elsewhere two items that share a
//! name count as callers of each other.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// Names the rule lets stay public without a caller, each with its
/// reason. Empty: an item nobody calls is deleted, or made `#[cfg(test)]`
/// when a unit test needs it.
const ALLOWED: &[(&str, &str)] = &[];

/// The crate under `crates/` that holds the harness, not the product.
const HARNESS: &str = "bench";

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every `.rs` file under `dir`, skipping `target/` and `vendor/`.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name != "target" && name != "vendor" && !name.starts_with('.') {
                rust_files(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// `src` with comments, string literals and char literals replaced by a
/// space. Lifetimes and loop labels are kept.
fn strip_comments_and_literals(src: &str) -> String {
    let s: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let mut i = 0;
    while i < s.len() {
        let c = s[i];
        let next = s.get(i + 1).copied();
        let prev_ident = i > 0 && is_ident(s[i - 1]);
        if c == '/' && next == Some('/') {
            while i < s.len() && s[i] != '\n' {
                i += 1;
            }
        } else if c == '/' && next == Some('*') {
            let mut depth = 0;
            while i < s.len() {
                if s[i] == '/' && s.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if s[i] == '*' && s.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    i += 1;
                }
            }
            out.push(' ');
        } else if !prev_ident && (c == 'r' || c == 'b') && raw_string_len(&s[i..]).is_some() {
            i += raw_string_len(&s[i..]).unwrap_or(1);
            out.push(' ');
        } else if c == '"' {
            i += 1;
            while i < s.len() && s[i] != '"' {
                i += if s[i] == '\\' { 2 } else { 1 };
            }
            i += 1;
            out.push(' ');
        } else if c == '\'' && next == Some('\\') {
            i += 3;
            while i < s.len() && s[i] != '\'' {
                i += 1;
            }
            i += 1;
            out.push(' ');
        } else if c == '\'' && s.get(i + 2) == Some(&'\'') {
            i += 3;
            out.push(' ');
        } else {
            out.push(c);
            i += 1;
        }
    }
    out
}

/// The length of the raw or byte string literal (`r"…"`, `r#"…"#`,
/// `b"…"`, `br#"…"#`) that starts `s`, if one does.
fn raw_string_len(s: &[char]) -> Option<usize> {
    let mut i = 0;
    if s.first() == Some(&'b') {
        i += 1;
    }
    let raw = s.get(i) == Some(&'r');
    if raw {
        i += 1;
    }
    if !raw && i == 0 {
        return None;
    }
    let hashes = s[i..].iter().take_while(|&&c| c == '#').count();
    i += hashes;
    if s.get(i) != Some(&'"') || (!raw && hashes > 0) {
        return None;
    }
    i += 1;
    while i < s.len() {
        if !raw && s[i] == '\\' {
            i += 2;
            continue;
        }
        if s[i] == '"'
            && s[i + 1..]
                .iter()
                .take(hashes)
                .filter(|&&c| c == '#')
                .count()
                == hashes
        {
            return Some(i + 1 + hashes);
        }
        i += 1;
    }
    Some(s.len())
}

/// `code` (already free of comments and literals) without its `pub use`
/// statements.
fn strip_reexports(code: &str) -> String {
    let mut kept = String::with_capacity(code.len());
    let mut rest = code;
    while let Some(at) = find_word(rest, "pub use") {
        kept.push_str(&rest[..at]);
        let end = rest[at..]
            .find(';')
            .map_or(rest.len(), |semi| at + semi + 1);
        kept.push(' ');
        rest = &rest[end..];
    }
    kept.push_str(rest);
    kept
}

/// `code` (already free of comments and literals) without its
/// `#[cfg(test)]` items.
fn strip_test_items(code: &str) -> String {
    let mut out = code.to_string();
    while let Some(start) = out.find("#[cfg(test)]") {
        let end = item_end(&out, start + "#[cfg(test)]".len());
        out.replace_range(start..end, " ");
    }
    out
}

/// The byte offset just past the item that starts at `from`: its closing
/// `;` or `}` at nesting depth zero, or the bracket that closes the
/// enclosing block.
fn item_end(code: &str, from: usize) -> usize {
    let mut depth = 0usize;
    for (offset, c) in code[from..].char_indices() {
        let at = from + offset;
        match c {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' if depth == 0 => return at,
            ')' | ']' => depth -= 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return at + 1;
                }
            }
            ';' if depth == 0 => return at + 1,
            _ => {}
        }
    }
    code.len()
}

/// The byte offset of the first occurrence of `word` in `text` that is
/// not part of a longer identifier.
fn find_word(text: &str, word: &str) -> Option<usize> {
    word_offsets(text, word).next()
}

fn word_offsets<'a>(text: &'a str, word: &'a str) -> impl Iterator<Item = usize> + 'a {
    text.match_indices(word)
        .map(|(at, _)| at)
        .filter(move |&at| {
            let before = text[..at].chars().next_back();
            let after = text[at + word.len()..].chars().next();
            !before.is_some_and(is_ident) && !after.is_some_and(is_ident)
        })
}

/// The names of the `pub fn`, `pub const fn` and `pub const` items
/// defined in `code`.
fn public_items(code: &str) -> Vec<String> {
    let words: Vec<&str> = code
        .split(|c: char| !is_ident(c))
        .filter(|w| !w.is_empty())
        .collect();
    let mut names = Vec::new();
    for (i, &word) in words.iter().enumerate() {
        if word != "pub" {
            continue;
        }
        let name = match &words[i + 1..] {
            ["const", "fn", name, ..] | ["fn", name, ..] | ["const", name, ..] => name,
            _ => continue,
        };
        names.push(name.to_string());
    }
    names
}

/// A source file with its comments, literals and re-exports stripped.
struct Source {
    path: PathBuf,
    /// Everything, unit tests included.
    with_tests: String,
    /// Without the `#[cfg(test)]` items: the file's own non-test code.
    code: String,
}

#[test]
fn every_public_item_has_a_caller_outside_its_definition() {
    let root = workspace_root();
    let mut paths = Vec::new();
    rust_files(&root, &mut paths);
    let sources: Vec<Source> = paths
        .into_iter()
        .map(|path| {
            let text = fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
            let with_tests = strip_reexports(&strip_comments_and_literals(&text));
            let code = strip_test_items(&with_tests);
            Source {
                path,
                with_tests,
                code,
            }
        })
        .collect();
    assert!(
        sources.len() > 50,
        "found only {} Rust files under {}",
        sources.len(),
        root.display()
    );

    let crates_dir = root.join("crates");
    let mut product_srcs: Vec<PathBuf> = fs::read_dir(&crates_dir)
        .expect("crates/ is readable")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|dir| dir.file_name().and_then(|n| n.to_str()) != Some(HARNESS))
        .map(|dir| dir.join("src"))
        .filter(|src| src.is_dir())
        .collect();
    product_srcs.sort();
    assert!(product_srcs.len() >= 5, "found no product crates");

    let allowed: BTreeMap<&str, &str> = ALLOWED.iter().copied().collect();
    let mut uncalled = BTreeSet::new();
    for src in &product_srcs {
        let (inside, outside): (Vec<&Source>, Vec<&Source>) =
            sources.iter().partition(|s| s.path.starts_with(src));
        let mut definitions: BTreeMap<String, usize> = BTreeMap::new();
        for source in &inside {
            for name in public_items(&source.code) {
                *definitions.entry(name).or_default() += 1;
            }
        }
        for (name, defined) in definitions {
            let uses_inside: usize = inside
                .iter()
                .map(|s| word_offsets(&s.code, &name).count())
                .sum();
            let called_outside = outside.iter().any(|s| {
                find_word(&s.code, &name).is_some()
                    || word_offsets(&s.with_tests, &name).any(|at| {
                        let before = &s.with_tests[..at];
                        before.ends_with('.') || before.ends_with("::")
                    })
            });
            if !called_outside && uses_inside <= defined && !allowed.contains_key(name.as_str()) {
                let krate = src
                    .parent()
                    .and_then(Path::file_name)
                    .and_then(|n| n.to_str())
                    .unwrap_or("?");
                uncalled.insert(format!("{krate}::{name}"));
            }
        }
    }
    assert!(
        uncalled.is_empty(),
        "{} public items have no caller outside their definition and their \
         own crate's unit tests; delete each, make it #[cfg(test)], or add \
         it to ALLOWED with a reason: {:?}",
        uncalled.len(),
        uncalled
    );
}

#[test]
fn the_stripper_keeps_code_and_drops_everything_else() {
    let src = r##"
        pub fn kept() -> char { let s = "pub fn in_string()"; 'x' }
        // pub fn in_line_comment() {}
        /* pub fn in_block /* nested */ pub fn still_comment() {} */
        pub const KEPT_CONST: [u8; 2] = [1, 2];
        pub const fn kept_const_fn<'a>(x: &'a u8) -> &'a u8 { x }
        pub use crate::reexported::{a,
            b};
        fn raw() -> &'static str { r#"pub fn in_raw() "quoted" "# }
        #[cfg(test)]
        pub fn test_only() -> [u8; 3] { [0; 3] }
        #[cfg(test)]
        mod tests { pub fn nested() { '\'' ; } }
        pub fn after_tests() {}
    "##;
    let code = strip_test_items(&strip_reexports(&strip_comments_and_literals(src)));
    assert_eq!(
        public_items(&code),
        ["kept", "KEPT_CONST", "kept_const_fn", "after_tests"]
    );
    assert!(find_word(&code, "reexported").is_none());
    assert!(find_word(&code, "raw").is_some());
    assert!(find_word(&code, "kept_const").is_none());
}
