//! Shared whole-workspace call-graph machinery for the static analyzers.
//!
//! Both `cargo xtask panic-check` (panic reachability, DESIGN.md §10) and
//! `cargo xtask hotpath-check` (allocation reachability + lock discipline,
//! DESIGN.md §14) need the same core: parse every hot-crate source with the
//! hand-rolled lexer, extract functions with spans and enclosing `impl`
//! types, build an intra-workspace call graph by name (qualified calls
//! `Type::fn` resolve only to that type's impl; unqualified calls
//! over-approximate to every same-named function), walk reachability from a
//! root set with parent pointers for call-chain witnesses, and audit
//! line-annotation suppressions (`panic-ok:` / `alloc-ok:` / `lock-ok:`)
//! for empty reasons and stale annotations that no longer suppress
//! anything. That core lives here; the analyzers keep only their
//! classifiers, root sets, and reporting.
//!
//! Known soundness limits (documented in DESIGN.md §10/§14): macro-expanded
//! code is invisible; trait-object and closure dispatch produce no edges
//! (a call `name(…)` where `name` is a parameter of the enclosing fn or
//! closure calls that parameter, not a same-named workspace fn); calls
//! qualified with external types (`HashMap::get`) are leaves; multi-line
//! expressions are classified line-by-line.

use crate::lexer::{collect_rs_files, lex, unicode_ident, FileView};
use std::collections::{HashMap, HashSet, VecDeque};
use std::path::Path;

/// One source file of a scanned crate.
pub struct SourceFile {
    /// Workspace-relative path (`crates/<name>/src/...`).
    pub rel: String,
    /// The crate the file belongs to (directory name under `crates/`).
    pub crate_name: String,
    /// Lexed per-line view (comments/strings blanked, test regions marked).
    pub view: FileView,
    /// The raw source lines, for report snippets.
    pub raw: Vec<String>,
}

/// Character stream of the comment/string-stripped code with a line map,
/// for scans that cross line boundaries (fn spans, impl headers, calls).
pub struct Flat {
    pub chars: Vec<char>,
    pub line_of: Vec<usize>,
}

fn flatten(view: &FileView) -> Flat {
    let mut chars = Vec::new();
    let mut line_of = Vec::new();
    for (ln, l) in view.code.iter().enumerate() {
        for c in l.chars() {
            chars.push(c);
            line_of.push(ln);
        }
        chars.push('\n');
        line_of.push(ln);
    }
    Flat { chars, line_of }
}

/// A named function with its span and enclosing `impl` type.
pub struct FnDef {
    /// Index into [`Workspace::files`].
    pub file: usize,
    pub name: String,
    /// The `impl` type the fn is defined on, if any.
    pub impl_type: Option<String>,
    /// Carries a `pub` (or `pub(...)`) visibility.
    pub is_pub: bool,
    /// Names the parameter list binds.
    pub params: Vec<String>,
    /// 0-based line span of the whole item.
    pub start_line: usize,
    pub end_line: usize,
    /// Char span (into the file's [`Flat`]) of the `{ ... }` body.
    pub body_start: usize,
    pub body_end: usize,
}

/// One call site inside a fn body.
pub struct Call {
    pub name: String,
    /// `qual::name(...)` qualifier; `Some("")` for an unknown generic
    /// qualifier (`T::<..>::f`), `None` for unqualified / method calls.
    pub qualifier: Option<String>,
    /// `.name(...)` method-call form: the receiver's type is unknown, so
    /// name-based resolution over-approximates. Analyzers that need
    /// precision (lock discipline) drop method calls resolving to more
    /// than one candidate; reachability keeps them (conservative).
    pub is_method: bool,
    /// 0-based line the call starts on.
    pub line: usize,
}

/// A finding reported by an analyzer: a rule hit with a call-chain witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// `crate::fn` the site lives in.
    pub func: String,
    /// Trimmed source line.
    pub snippet: String,
    /// Call-chain witness (`crate::fn` each), root first.
    pub witness: Vec<String>,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{}:{}: [{}] in `{}`: {}",
            self.path, self.line, self.rule, self.func, self.snippet
        )?;
        write!(f, "    witness: {}", self.witness.join(" -> "))
    }
}

/// Reachability from a root set, with parent pointers for witnesses.
pub struct Reach {
    pub reachable: Vec<bool>,
    parent: Vec<Option<usize>>,
    /// One `unmatched-root` finding per root spec that names no fn: a
    /// renamed or deleted root would otherwise shrink the gate silently.
    pub unmatched: Vec<Finding>,
}

impl Reach {
    /// Call chain root → … → `id` (inclusive), as `crate::fn` labels.
    pub fn witness(&self, ws: &Workspace, id: usize) -> Vec<String> {
        let mut chain = vec![ws.label(id)];
        let mut cur = id;
        while let Some(p) = self.parent[cur] {
            chain.push(ws.label(p));
            cur = p;
        }
        chain.reverse();
        chain
    }
}

/// The parsed workspace: files, fns, and the resolved call graph.
pub struct Workspace {
    pub files: Vec<SourceFile>,
    pub flats: Vec<Flat>,
    pub fns: Vec<FnDef>,
    /// Outgoing call edges per fn (sorted, deduped).
    pub edges: Vec<Vec<usize>>,
    pub edge_count: usize,
    /// Extracted call sites per fn (same order the body yields them).
    pub calls: Vec<Vec<Call>>,
    fns_by_file: Vec<Vec<usize>>,
    by_name: HashMap<String, Vec<usize>>,
    by_type: HashMap<(String, String), Vec<usize>>,
    impl_types: HashSet<String>,
    by_module: HashMap<String, Vec<usize>>,
}

impl Workspace {
    /// Parse `<root>/crates/<crate>/src` for each named crate and build the
    /// call graph.
    pub fn load(root: &Path, crates: &[&str]) -> Result<Workspace, String> {
        let mut files = Vec::new();
        for krate in crates {
            let src = root.join("crates").join(krate).join("src");
            let mut paths = Vec::new();
            collect_rs_files(&src, &mut paths);
            paths.sort();
            for path in paths {
                let source = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .replace('\\', "/");
                files.push(SourceFile {
                    rel,
                    crate_name: krate.to_string(),
                    view: lex(&source),
                    raw: source.lines().map(str::to_string).collect(),
                });
            }
        }
        if files.is_empty() {
            return Err(format!("no sources under {}/crates", root.display()));
        }

        // --- extract fns (with impl context) per file --------------------
        let flats: Vec<Flat> = files.iter().map(|f| flatten(&f.view)).collect();
        let mut fns: Vec<FnDef> = Vec::new();
        for (fi, file) in files.iter().enumerate() {
            let flat = &flats[fi];
            let impls = extract_impls(flat);
            for f in extract_fns(flat, &file.view, fi, &impls) {
                fns.push(f);
            }
        }

        // --- resolution indexes ------------------------------------------
        let mut by_name: HashMap<String, Vec<usize>> = HashMap::new();
        let mut by_type: HashMap<(String, String), Vec<usize>> = HashMap::new();
        let mut impl_types: HashSet<String> = HashSet::new();
        let mut by_module: HashMap<String, Vec<usize>> = HashMap::new();
        for (id, f) in fns.iter().enumerate() {
            by_name.entry(f.name.clone()).or_default().push(id);
            if let Some(t) = &f.impl_type {
                impl_types.insert(t.clone());
                by_type
                    .entry((t.clone(), f.name.clone()))
                    .or_default()
                    .push(id);
            }
            let file = &files[f.file];
            if let Some(stem) = Path::new(&file.rel).file_stem().and_then(|s| s.to_str()) {
                if stem != "lib" && stem != "mod" {
                    by_module.entry(stem.to_string()).or_default().push(id);
                }
            }
            by_module
                .entry(format!("ruru_{}", file.crate_name))
                .or_default()
                .push(id);
        }

        let mut fns_by_file: Vec<Vec<usize>> = vec![Vec::new(); files.len()];
        for (id, f) in fns.iter().enumerate() {
            fns_by_file[f.file].push(id);
        }

        let mut ws = Workspace {
            files,
            flats,
            fns,
            edges: Vec::new(),
            edge_count: 0,
            calls: Vec::new(),
            fns_by_file,
            by_name,
            by_type,
            impl_types,
            by_module,
        };

        // --- call sites and edges ----------------------------------------
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); ws.fns.len()];
        let mut calls: Vec<Vec<Call>> = Vec::new();
        let mut edge_count = 0usize;
        for (id, f) in ws.fns.iter().enumerate() {
            let flat = &ws.flats[f.file];
            let view = &ws.files[f.file].view;
            let sites = extract_calls(flat, view, f);
            let mut out: HashSet<usize> = HashSet::new();
            for call in &sites {
                for target in ws.resolve(call, f) {
                    if target != id {
                        out.insert(target);
                    }
                }
            }
            let mut out: Vec<usize> = out.into_iter().collect();
            out.sort_unstable();
            edge_count += out.len();
            edges[id] = out;
            calls.push(sites);
        }
        ws.edges = edges;
        ws.edge_count = edge_count;
        ws.calls = calls;
        Ok(ws)
    }

    /// `crate::fn` display label.
    pub fn label(&self, id: usize) -> String {
        let f = &self.fns[id];
        format!("{}::{}", self.files[f.file].crate_name, f.name)
    }

    /// Resolve one call site from inside `caller` to candidate fn ids.
    /// Qualified calls narrow to the matching impl type or module; unknown
    /// qualifiers (std/external types) are leaves; unqualified calls
    /// over-approximate to every fn of that name in the scanned crates.
    pub fn resolve(&self, call: &Call, caller: &FnDef) -> Vec<usize> {
        match &call.qualifier {
            None => self
                .by_name
                .get(call.name.as_str())
                .cloned()
                .unwrap_or_default(),
            Some(q) => {
                let q = if q == "Self" {
                    match &caller.impl_type {
                        Some(t) => t.clone(),
                        None => return Vec::new(),
                    }
                } else {
                    q.clone()
                };
                if self.impl_types.contains(q.as_str()) {
                    self.by_type
                        .get(&(q, call.name.clone()))
                        .cloned()
                        .unwrap_or_default()
                } else if let Some(in_module) = self.by_module.get(&q) {
                    let named = self
                        .by_name
                        .get(call.name.as_str())
                        .cloned()
                        .unwrap_or_default();
                    named
                        .into_iter()
                        .filter(|id| in_module.contains(id))
                        .collect()
                } else {
                    Vec::new() // external type/module: leaf
                }
            }
        }
    }

    /// True when any workspace fn is named `name` — used by classifiers to
    /// delegate method-call patterns (`.push(`) to the call graph when a
    /// same-named workspace fn exists (its own body gets scanned instead).
    pub fn has_fn_named(&self, name: &str) -> bool {
        self.by_name.contains_key(name)
    }

    /// Does `(crate, spec)` root this fn? `spec` is `"*"` (every pub fn in
    /// the crate), `"name"`, or `"Type::name"` (narrowed to one impl).
    fn is_root(&self, id: usize, krate: &str, spec: &str) -> bool {
        let f = &self.fns[id];
        if self.files[f.file].crate_name != krate {
            return false;
        }
        if spec == "*" {
            return f.is_pub;
        }
        match spec.split_once("::") {
            Some((ty, name)) => f.impl_type.as_deref() == Some(ty) && f.name == name,
            None => f.name == spec,
        }
    }

    /// BFS reachability from `(crate, spec)` roots, with parent pointers.
    /// An unmatched spec's finding points at the caller's `reach` call.
    #[track_caller]
    pub fn reach(&self, roots: &[(&str, &str)]) -> Reach {
        let mut parent: Vec<Option<usize>> = vec![None; self.fns.len()];
        let mut reachable = vec![false; self.fns.len()];
        let mut queue = VecDeque::new();
        for (id, seen) in reachable.iter_mut().enumerate() {
            if roots.iter().any(|(c, n)| self.is_root(id, c, n)) {
                *seen = true;
                queue.push_back(id);
            }
        }
        let caller = std::panic::Location::caller();
        let unmatched = roots
            .iter()
            .filter(|(c, n)| !(0..self.fns.len()).any(|id| self.is_root(id, c, n)))
            .map(|(c, n)| Finding {
                rule: "unmatched-root",
                path: caller.file().to_string(),
                line: caller.line() as usize,
                func: format!("{c}::{n}"),
                snippet: "root spec matches no fn in the scanned crates".to_string(),
                witness: Vec::new(),
            })
            .collect();
        while let Some(id) = queue.pop_front() {
            for &next in &self.edges[id] {
                if !reachable[next] {
                    reachable[next] = true;
                    parent[next] = Some(id);
                    queue.push_back(next);
                }
            }
        }
        Reach {
            reachable,
            parent,
            unmatched,
        }
    }

    /// Propagate a per-fn property from callees up to callers (fixed point
    /// over reverse edges) using a caller-supplied edge set — usually
    /// [`Workspace::edges`] itself, or a precision-filtered subset of it.
    /// `marked[id]` starts from `seed` and becomes true when any callee is
    /// marked. Returns the mark vector and, for propagated marks, the
    /// callee that caused them (for witnesses).
    pub fn propagate_up_edges(
        &self,
        edges: &[Vec<usize>],
        seed: &[bool],
    ) -> (Vec<bool>, Vec<Option<usize>>) {
        let mut marked: Vec<bool> = seed.to_vec();
        let mut because: Vec<Option<usize>> = vec![None; self.fns.len()];
        let mut rev: Vec<Vec<usize>> = vec![Vec::new(); self.fns.len()];
        for (id, outs) in edges.iter().enumerate() {
            for &out in outs {
                rev[out].push(id);
            }
        }
        let mut queue: VecDeque<usize> = (0..self.fns.len()).filter(|&i| marked[i]).collect();
        while let Some(id) = queue.pop_front() {
            for &caller in &rev[id] {
                if !marked[caller] {
                    marked[caller] = true;
                    because[caller] = Some(id);
                    queue.push_back(caller);
                }
            }
        }
        (marked, because)
    }

    /// Chain `id` → … → seeded fn, following `because` pointers from
    /// [`Workspace::propagate_up_edges`].
    pub fn because_chain(&self, because: &[Option<usize>], id: usize) -> Vec<String> {
        let mut chain = vec![self.label(id)];
        let mut cur = id;
        while let Some(b) = because[cur] {
            chain.push(self.label(b));
            cur = b;
        }
        chain
    }

    /// The innermost fn whose span contains `(file, line)` — attribution
    /// for sites inside nested fns.
    pub fn innermost_fn(&self, file: usize, line: usize) -> Option<usize> {
        self.fns_by_file[file]
            .iter()
            .copied()
            .filter(|&id| self.fns[id].start_line <= line && line <= self.fns[id].end_line)
            .min_by_key(|&id| self.fns[id].end_line - self.fns[id].start_line)
    }

    /// Trimmed raw source line for reports.
    pub fn snippet(&self, file: usize, line: usize) -> String {
        self.files[file]
            .raw
            .get(line)
            .map(|s| s.trim().to_string())
            .unwrap_or_default()
    }
}

// ---------------------------------------------------------------------------
// Machine-readable output (`--json`)
// ---------------------------------------------------------------------------

/// Minimal JSON string escape (quotes, backslashes, control chars) — the
/// xtask crate is dependency-free by design, so no serde.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// One finding as a JSON object: rule, file:line, owning fn, snippet, and
/// the call-chain witness (root first).
pub fn finding_json(f: &Finding) -> String {
    let witness: Vec<String> = f
        .witness
        .iter()
        .map(|w| format!("\"{}\"", json_escape(w)))
        .collect();
    format!(
        "{{\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"func\":\"{}\",\"snippet\":\"{}\",\"witness\":[{}]}}",
        json_escape(f.rule),
        json_escape(&f.path),
        f.line,
        json_escape(&f.func),
        json_escape(&f.snippet),
        witness.join(",")
    )
}

/// One analyzer's section of the shared JSON report: `{"analyzer": name,
/// "findings": [...], "audited": n}`. `check-all` concatenates sections
/// into one artifact; standalone runs emit a single-element array.
pub fn analyzer_json(analyzer: &str, findings: &[&Finding], audited: usize) -> String {
    let items: Vec<String> = findings.iter().map(|f| finding_json(f)).collect();
    format!(
        "{{\"analyzer\":\"{}\",\"findings\":[{}],\"audited\":{}}}",
        json_escape(analyzer),
        items.join(","),
        audited
    )
}

/// Write `sections` (each from [`analyzer_json`]) as one JSON document to
/// `path`, or to stdout when `path` is `-`.
pub fn write_json_report(path: &str, sections: &[String]) -> Result<(), String> {
    let doc = format!("{{\"analyzers\":[{}]}}\n", sections.join(","));
    if path == "-" {
        print!("{doc}");
        Ok(())
    } else {
        std::fs::write(path, doc).map_err(|e| format!("cannot write {path}: {e}"))
    }
}

// ---------------------------------------------------------------------------
// Extraction: impl blocks, fn spans, call sites
// ---------------------------------------------------------------------------

/// True when `chars[i..]` starts the word `w` with ident boundaries on both
/// sides.
pub fn word_at(chars: &[char], i: usize, w: &str) -> bool {
    if i > 0 && unicode_ident(chars[i - 1]) {
        return false;
    }
    let mut j = i;
    for wc in w.chars() {
        if chars.get(j) != Some(&wc) {
            return false;
        }
        j += 1;
    }
    !chars.get(j).copied().is_some_and(unicode_ident)
}

pub fn skip_ws(chars: &[char], mut i: usize) -> usize {
    while chars.get(i).copied().is_some_and(char::is_whitespace) {
        i += 1;
    }
    i
}

pub fn read_ident(chars: &[char], mut i: usize) -> (String, usize) {
    let mut s = String::new();
    while chars.get(i).copied().is_some_and(unicode_ident) {
        s.push(chars[i]);
        i += 1;
    }
    (s, i)
}

/// Skip a balanced `<…>` generic list starting at `i` (which must point at
/// `<`). Returns the index just past the closing `>`.
pub fn skip_angles(chars: &[char], mut i: usize) -> usize {
    let mut depth = 0i32;
    while i < chars.len() {
        match chars[i] {
            '<' => depth += 1,
            '>' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            // `->` inside `Fn(..) -> T` bounds: the '>' belongs to the
            // arrow, not the generic list.
            '-' if chars.get(i + 1) == Some(&'>') => {
                i += 1;
            }
            _ => {}
        }
        i += 1;
    }
    i
}

/// Find the matching `}` for the `{` at `open`; returns its index.
pub fn match_brace(chars: &[char], open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < chars.len() {
        match chars[i] {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    chars.len() - 1
}

/// `impl` blocks as (type name, span start char, span end char).
fn extract_impls(flat: &Flat) -> Vec<(String, usize, usize)> {
    let chars = &flat.chars;
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        if !word_at(chars, i, "impl") {
            i += 1;
            continue;
        }
        let mut j = skip_ws(chars, i + 4);
        if chars.get(j) == Some(&'<') {
            j = skip_angles(chars, j);
        }
        // Collect the header text up to the body `{` (paren depth 0 —
        // where-clauses may contain `Fn(..)`).
        let mut header = String::new();
        let mut depth = 0i32;
        let mut k = j;
        while k < chars.len() {
            match chars[k] {
                '(' | '[' => depth += 1,
                ')' | ']' => depth -= 1,
                '{' if depth == 0 => break,
                ';' if depth == 0 => break, // `impl Trait for T;` — not Rust, bail
                _ => {}
            }
            header.push(chars[k]);
            k += 1;
        }
        if chars.get(k) == Some(&'{') {
            let end = match_brace(chars, k);
            if let Some(name) = parse_impl_type(&header) {
                out.push((name, i, end));
            }
            // Do not jump past the block: nested impls are rare but legal.
        }
        i = k + 1;
    }
    out
}

/// Pull the implemented type's name out of an impl header (the text between
/// `impl<…>` and `{`): `Display for Packet<'a>` → `Packet`.
fn parse_impl_type(header: &str) -> Option<String> {
    let after_for = match header.find(" for ") {
        Some(at) => &header[at + 5..],
        None => header,
    };
    let before_where = match after_for.find(" where") {
        Some(at) => &after_for[..at],
        None => after_for,
    };
    let mut s = before_where.trim();
    for prefix in ["&", "mut ", "dyn "] {
        s = s.strip_prefix(prefix).unwrap_or(s).trim_start();
    }
    let head = s.split('<').next()?;
    let name = head.rsplit("::").next()?.trim();
    if name.is_empty() || !name.chars().all(unicode_ident) {
        return None;
    }
    Some(name.to_string())
}

/// Every named fn in the file with its body span; test-region fns skipped.
fn extract_fns(
    flat: &Flat,
    view: &FileView,
    file: usize,
    impls: &[(String, usize, usize)],
) -> Vec<FnDef> {
    let chars = &flat.chars;
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        if !word_at(chars, i, "fn") {
            i += 1;
            continue;
        }
        let j = skip_ws(chars, i + 2);
        let (name, after_name) = read_ident(chars, j);
        if name.is_empty() {
            i = j + 1; // `fn(` pointer type
            continue;
        }
        // Find the body `{` at paren/bracket depth 0, or `;` (no body).
        let mut depth = 0i32;
        let mut k = after_name;
        let mut body = None;
        while k < chars.len() {
            match chars[k] {
                '(' | '[' => depth += 1,
                ')' | ']' => depth -= 1,
                '{' if depth == 0 => {
                    body = Some(k);
                    break;
                }
                ';' if depth == 0 => break,
                _ => {}
            }
            k += 1;
        }
        let Some(open) = body else {
            i = k + 1;
            continue;
        };
        let end = match_brace(chars, open);
        let mut p = skip_ws(chars, after_name);
        if chars.get(p) == Some(&'<') {
            p = skip_ws(chars, skip_angles(chars, p));
        }
        let params = bound_names(chars, p + 1, open);
        let start_line = flat.line_of[i];
        if view.in_tests[start_line] {
            i = after_name;
            continue;
        }
        let impl_type = impls
            .iter()
            .filter(|(_, s, e)| *s <= i && i <= *e)
            .min_by_key(|(_, s, e)| e - s)
            .map(|(t, _, _)| t.clone());
        out.push(FnDef {
            file,
            name,
            impl_type,
            is_pub: is_pub_at(chars, i),
            params,
            start_line,
            end_line: flat.line_of[end],
            body_start: open,
            body_end: end,
        });
        i = after_name;
    }
    out
}

/// True when the `fn` keyword at `fn_kw` carries a `pub` (or `pub(...)`)
/// visibility, looking back through `const`/`unsafe`/`async`/`extern`.
fn is_pub_at(chars: &[char], fn_kw: usize) -> bool {
    let mut i = fn_kw;
    while i > 0 && chars[i - 1].is_whitespace() {
        i -= 1;
    }
    if i == 0 {
        return false;
    }
    if chars[i - 1] == ')' {
        // `pub(crate) fn` / `pub(super) fn`
        let mut j = i - 1;
        while j > 0 && chars[j] != '(' {
            j -= 1;
        }
        while j > 0 && chars[j - 1].is_whitespace() {
            j -= 1;
        }
        return j > 0 && tok_ending_at(chars, j - 1) == "pub";
    }
    if unicode_ident(chars[i - 1]) {
        let tok = tok_ending_at(chars, i - 1);
        if tok == "pub" {
            return true;
        }
        if matches!(tok.as_str(), "const" | "unsafe" | "async" | "extern") {
            return is_pub_at(chars, i - tok.len());
        }
    }
    false
}

// `drop` is excluded too: `drop(guard)` is a destructor invocation, not a
// call of a named workspace fn — resolving it to every `Drop::drop` impl
// would wire unrelated lock/blocking edges into the graph.
const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "move", "in", "as", "let", "else", "fn",
    "unsafe", "use", "mod", "pub", "where", "break", "continue", "yield", "await", "drop",
];

/// The names a parameter list starting at `start` binds, up to `end` or
/// the bracket that closes the list: the identifiers of each parameter's
/// pattern, before its `: Type` if it has one.
fn bound_names(chars: &[char], start: usize, end: usize) -> Vec<String> {
    let (mut names, mut depth, mut in_type, mut i) = (Vec::new(), 0i32, false, start);
    while i < end {
        match chars[i] {
            '(' | '[' | '{' | '<' => depth += 1,
            ')' | ']' | '}' if depth == 0 => break,
            ')' | ']' | '}' => depth -= 1,
            // `->` inside `Fn(..) -> T` is an arrow, not a closing angle.
            '>' if chars[i - 1] != '-' => depth -= 1,
            ',' if depth == 0 => in_type = false,
            ':' if depth == 0 => in_type = true,
            c if !in_type && unicode_ident(c) && !unicode_ident(chars[i - 1]) => {
                let (name, after) = read_ident(chars, i);
                if !matches!(name.as_str(), "mut" | "ref" | "self" | "_") {
                    names.push(name);
                }
                i = after;
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    names
}

/// Closures in `chars[start..end]` with parameters: each one's parameter
/// names and the char span they are in scope over, up to the end of the
/// expression the closure sits in.
fn closure_scopes(chars: &[char], start: usize, end: usize) -> Vec<(Vec<String>, usize, usize)> {
    let mut out = Vec::new();
    let mut i = start;
    while i < end {
        if chars[i] != '|' || chars.get(i + 1) == Some(&'|') {
            // Not a `|`, or `||`: a closure without parameters, or an or.
            i += if chars[i] == '|' { 2 } else { 1 };
            continue;
        }
        // A closure's `|` opens an operand: it follows a delimiter, an
        // `=`, a `=>`, `move` or `return`, never another operand.
        let before = (start..i).rev().find(|&k| !chars[k].is_whitespace());
        let opens = before.is_some_and(|p| {
            matches!(chars[p], '(' | ',' | '{' | '[' | ';' | '=' | '>')
                || matches!(tok_ending_at(chars, p).as_str(), "move" | "return")
        });
        let close = (i + 1..end).find(|&k| opens && chars[k] == '|');
        if let Some(close) = close {
            let scope_end = expression_end(chars, close + 1, end);
            out.push((bound_names(chars, i + 1, close), close + 1, scope_end));
            i = close;
        }
        i += 1;
    }
    out
}

/// End of the expression starting at `start`: the first `,` or `;` outside
/// any brackets, or the bracket that closes the one it sits in.
fn expression_end(chars: &[char], start: usize, end: usize) -> usize {
    let mut depth = 0i32;
    for (i, &c) in chars.iter().enumerate().take(end).skip(start) {
        match c {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' | ',' | ';' if depth == 0 => return i,
            ')' | ']' | '}' => depth -= 1,
            _ => {}
        }
    }
    end
}

/// Scan a fn body for call sites `name(`, `qual::name(`, `.name(`,
/// `name::<T>(`; macros (`name!`) are excluded — panic macros are
/// classified separately and other macro bodies are a documented blind
/// spot. A plain `name(` where `name` is a parameter of `f` or of a
/// closure around the call calls that parameter and is no call site.
fn extract_calls(flat: &Flat, view: &FileView, f: &FnDef) -> Vec<Call> {
    let chars = &flat.chars;
    let (body_start, body_end) = (f.body_start, f.body_end);
    let mut scopes = closure_scopes(chars, body_start, body_end);
    scopes.push((f.params.clone(), body_start, body_end));
    let is_param = |name: &str, at: usize| {
        let bound = |(ps, s, e): &(Vec<String>, usize, usize)| {
            (*s..=*e).contains(&at) && ps.iter().any(|p| p == name)
        };
        scopes.iter().any(bound)
    };
    let mut out = Vec::new();
    let mut i = body_start;
    while i < body_end {
        let c = chars[i];
        if !unicode_ident(c) || (i > 0 && unicode_ident(chars[i - 1])) {
            i += 1;
            continue;
        }
        // Lifetime `'a` is not an ident start.
        if i > 0 && chars[i - 1] == '\'' {
            i += 1;
            continue;
        }
        let (name, after) = read_ident(chars, i);
        if view.in_tests[flat.line_of[i]] || name.chars().next().is_some_and(|c| c.is_ascii_digit())
        {
            i = after;
            continue;
        }
        let mut j = skip_ws(chars, after);
        // Turbofish: `name::<T>(`.
        if chars.get(j) == Some(&':') && chars.get(j + 1) == Some(&':') {
            let k = skip_ws(chars, j + 2);
            if chars.get(k) == Some(&'<') {
                j = skip_ws(chars, skip_angles(chars, k));
            } else {
                i = after;
                continue; // path segment, not a call of `name`
            }
        }
        if chars.get(j) == Some(&'!') {
            i = after;
            continue; // macro
        }
        if chars.get(j) != Some(&'(') || CALL_KEYWORDS.contains(&name.as_str()) {
            i = after;
            continue;
        }
        // Qualifier: `qual::name(` — read the segment before a `::`.
        let mut qualifier = None;
        if i >= 2 && chars[i - 1] == ':' && chars[i - 2] == ':' {
            let mut q_end = i - 2;
            while q_end > 0 && chars[q_end - 1].is_whitespace() {
                q_end -= 1;
            }
            if q_end > 0 && chars[q_end - 1] == '>' {
                qualifier = Some(String::new()); // generic qualifier: unknown
            } else {
                let mut q_start = q_end;
                while q_start > 0 && unicode_ident(chars[q_start - 1]) {
                    q_start -= 1;
                }
                if q_start < q_end {
                    qualifier = Some(chars[q_start..q_end].iter().collect());
                }
            }
        }
        let is_method = i > 0 && chars[i - 1] == '.';
        if qualifier.is_none() && !is_method && is_param(&name, i) {
            i = after;
            continue;
        }
        out.push(Call {
            name,
            qualifier,
            is_method,
            line: flat.line_of[i],
        });
        i = after;
    }
    out
}

// ---------------------------------------------------------------------------
// Token helpers shared by the per-line classifiers
// ---------------------------------------------------------------------------

pub fn skip_ws_chars(b: &[char], mut i: usize) -> usize {
    while i < b.len() && b[i].is_whitespace() {
        i += 1;
    }
    i
}

pub fn read_tok(b: &[char], mut i: usize) -> (String, usize) {
    let mut s = String::new();
    while i < b.len() && unicode_ident(b[i]) {
        s.push(b[i]);
        i += 1;
    }
    (s, i)
}

pub fn tok_ending_at(b: &[char], end: usize) -> String {
    if !unicode_ident(b[end]) {
        return String::new();
    }
    let mut start = end;
    while start > 0 && unicode_ident(b[start - 1]) {
        start -= 1;
    }
    b[start..=end].iter().collect()
}

/// Word-boundary substring search on a code line: every position where
/// `needle` occurs with no identifier character on either side.
pub fn word_positions(line: &str, needle: &str) -> Vec<usize> {
    line.match_indices(needle)
        .filter(|(pos, _)| {
            let before = line[..*pos].chars().next_back();
            let after = line[pos + needle.len()..].chars().next();
            !before.is_some_and(unicode_ident) && !after.is_some_and(unicode_ident)
        })
        .map(|(pos, _)| pos)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn impl_type_parsed_through_trait_impls() {
        let flat = flatten(&lex(
            "impl<'a> Iterator for OptionsIter<'a> {\n    fn next(&mut self) {}\n}\n",
        ));
        let impls = extract_impls(&flat);
        assert_eq!(impls.len(), 1);
        assert_eq!(impls[0].0, "OptionsIter");
    }

    #[test]
    fn typed_root_spec_narrows_to_one_impl() {
        let root = std::env::temp_dir().join(format!("ruru-callgraph-{}", std::process::id()));
        std::fs::create_dir_all(root.join("crates/mq/src")).expect("mkdir");
        std::fs::write(
            root.join("crates/mq/src/lib.rs"),
            "pub struct Bus;\n\
             impl Bus {\n\
             \x20   pub fn publish(&self) { fan() }\n\
             }\n\
             pub struct Tcp;\n\
             impl Tcp {\n\
             \x20   pub fn publish(&self) { frame() }\n\
             }\n\
             fn fan() {}\n\
             fn frame() {}\n",
        )
        .expect("write");
        let ws = Workspace::load(&root, &["mq"]).expect("load");
        std::fs::remove_dir_all(&root).ok();
        let reach = ws.reach(&[("mq", "Bus::publish")]);
        let reached: Vec<String> = (0..ws.fns.len())
            .filter(|&id| reach.reachable[id])
            .map(|id| format!("{}::{}", ws.fns[id].impl_type.clone().unwrap_or_default(), ws.fns[id].name))
            .collect();
        assert!(reached.contains(&"Bus::publish".to_string()));
        assert!(reached.contains(&"::fan".to_string()));
        assert!(!reached.contains(&"Tcp::publish".to_string()));
        assert!(!reached.contains(&"::frame".to_string()));
        assert!(reach.unmatched.is_empty());
    }

    #[test]
    fn unmatched_root_spec_is_a_finding() {
        let root = std::env::temp_dir().join(format!("ruru-unmatched-{}", std::process::id()));
        std::fs::create_dir_all(root.join("crates/mq/src")).expect("mkdir");
        std::fs::write(root.join("crates/mq/src/lib.rs"), "pub fn send() {}\n").expect("write");
        let ws = Workspace::load(&root, &["mq"]).expect("load");
        std::fs::remove_dir_all(&root).ok();
        let reach = ws.reach(&[("mq", "send"), ("mq", "Push::try_send"), ("flow", "send")]);
        let unmatched: Vec<&str> = reach.unmatched.iter().map(|f| f.func.as_str()).collect();
        assert_eq!(unmatched, ["mq::Push::try_send", "flow::send"]);
        assert!(reach.unmatched.iter().all(|f| f.rule == "unmatched-root"));
        assert_eq!(reach.unmatched[0].path, file!());
    }

    /// A call through a parameter is no edge to a same-named workspace fn:
    /// a closure parameter `value` next to `fn value`, and a fn parameter
    /// `f` next to `fn f`. The same names called outside their scope
    /// still resolve.
    #[test]
    fn parameters_are_not_call_targets() {
        let root = std::env::temp_dir().join(format!("ruru-params-{}", std::process::id()));
        std::fs::create_dir_all(root.join("crates/tsdb/src")).expect("mkdir");
        std::fs::write(
            root.join("crates/tsdb/src/lib.rs"),
            "pub fn append(rows: &[u64]) -> u64 {\n\
             \x20   fold(rows, |acc, value| acc + value(acc))\n\
             }\n\
             pub fn apply<F: Fn(u64) -> u64>(f: F, x: u64) -> u64 { f(x) }\n\
             pub fn direct() -> u64 { value(1) + f(2) }\n\
             fn fold(rows: &[u64], g: impl Fn(u64, fn(u64) -> u64) -> u64) -> u64 { 0 }\n\
             fn value(x: u64) -> u64 { x }\n\
             fn f(x: u64) -> u64 { x }\n",
        )
        .expect("write");
        let ws = Workspace::load(&root, &["tsdb"]).expect("load");
        std::fs::remove_dir_all(&root).ok();
        let id = |name: &str| ws.fns.iter().position(|f| f.name == name).expect(name);
        let name_of = |t: &usize| ws.fns[*t].name.as_str();
        let callees = |name: &str| ws.edges[id(name)].iter().map(name_of).collect::<Vec<_>>();
        assert_eq!(callees("append"), ["fold"]);
        assert!(callees("apply").is_empty());
        assert_eq!(callees("direct"), ["value", "f"]);
        assert_eq!(ws.fns[id("apply")].params, ["f", "x"]);
    }

    #[test]
    fn propagate_up_marks_callers_with_witness_chain() {
        let root = std::env::temp_dir().join(format!("ruru-propagate-{}", std::process::id()));
        std::fs::create_dir_all(root.join("crates/mq/src")).expect("mkdir");
        std::fs::write(
            root.join("crates/mq/src/lib.rs"),
            "pub fn outer() { middle() }\n\
             fn middle() { leaf() }\n\
             fn leaf() {}\n\
             fn unrelated() {}\n",
        )
        .expect("write");
        let ws = Workspace::load(&root, &["mq"]).expect("load");
        std::fs::remove_dir_all(&root).ok();
        let leaf = ws.fns.iter().position(|f| f.name == "leaf").expect("leaf");
        let outer = ws.fns.iter().position(|f| f.name == "outer").expect("outer");
        let unrelated = ws
            .fns
            .iter()
            .position(|f| f.name == "unrelated")
            .expect("unrelated");
        let mut seed = vec![false; ws.fns.len()];
        seed[leaf] = true;
        let (marked, because) = ws.propagate_up_edges(&ws.edges, &seed);
        assert!(marked[outer]);
        assert!(!marked[unrelated]);
        let chain = ws.because_chain(&because, outer);
        assert_eq!(chain, ["mq::outer", "mq::middle", "mq::leaf"]);
    }
}
