#!/usr/bin/env bash
# Gate for the rule "code without a runtime caller stays only as a test
# oracle, as paper content or because a lint requires it", with every
# use resolved by the compiler.
#
# In a copy of the repository (target/pub_audit/src), every `pub`
# fn/struct/enum/trait/const/type/static of crates/*/src (outside
# src/bin, up to the file's first column-0 `#[cfg(test)]` line) gets
# `#[deprecated(note = "AUDIT <item>")]`, and every `use` item gets
# `#[allow(deprecated)]`, so neither an import nor a re-export is a use.
# `cargo check` then builds the runtime targets -- the workspace's
# libraries, binaries and examples, and the C880 benchmark (c880bench)
# -- into target/pub_audit/target. An item has a runtime caller exactly
# when a deprecation warning carries its note; tests, benches and doc
# examples are not runtime callers. A use inside another audited item
# counts: an item whose only caller has no runtime caller shows up once
# that caller is gone, and a type named in its own methods or `impl`
# headers counts as used. <item> is the item's path: crate, modules,
# the type of an associated item, name (mis_sim::engine::Simulator::new).
#
# Every listed item needs a line in scripts/pub_audit.allow giving its
# reason to stay, tagged `oracle:`, `paper:` or `lint:`. The script
# fails on a listed item without a line, on a line whose item is not
# listed, on a line without a tag, and when either `cargo check` fails.
#
# Usage: scripts/pub_audit.sh [--list]
#   --list  print every item without a runtime caller and exit 0.
set -euo pipefail
cd "$(dirname "$0")/.."

allow=scripts/pub_audit.allow
list_only=0
case "${1:-}" in
    "") ;;
    --list) list_only=1 ;;
    *) echo "usage: scripts/pub_audit.sh [--list]" >&2; exit 2 ;;
esac

work=target/pub_audit
copy=$work/src
rm -rf "$copy"
mkdir -p "$copy"
git ls-files -z --cached --others --exclude-standard | while IFS= read -r -d '' file; do
    if [[ -f $file ]]; then cp --parents "$file" "$copy"; fi
done

# Marks the library files in the copy and writes "item<TAB>file:line"
# for every marked item to $work/items.
# shellcheck disable=SC2046  # word splitting makes the file list
awk -v copy="$copy" -v items="$work/items" '
    # The Rust path of a library file: crates/core/src/fit.rs -> mis_core::fit.
    function module_path(file,    parts, n, path, i) {
        n = split(file, parts, "/")
        path = "mis_" parts[2]
        for (i = 4; i <= n; i++) {
            sub(/\.rs$/, "", parts[i])
            if (i == n && (parts[i] == "lib" || parts[i] == "mod")) continue
            path = path "::" parts[i]
        }
        return path
    }
    # The type a column-0 `impl` header implements: its last path
    # segment, after `for` when it implements a trait.
    function impl_type(code,    rest, depth, i, c, out) {
        rest = code
        sub(/^impl/, "", rest)
        if (rest ~ /^</) {
            depth = 0
            for (i = 1; i <= length(rest); i++) {
                c = substr(rest, i, 1)
                if (c == "<") depth++
                if (c == ">") depth--
                if (depth == 0) break
            }
            rest = substr(rest, i + 1)
        }
        if (match(rest, / for /)) rest = substr(rest, RSTART + 5)
        match(rest, /[A-Za-z_][A-Za-z0-9_:]*/)
        out = substr(rest, RSTART, RLENGTH)
        sub(/.*::/, "", out)
        return out
    }
    FNR == 1 {
        if (out != "") close(out)
        out = copy "/" FILENAME
        skip = 0
        owner = ""
    }
    /^#\[cfg\(test\)\]/ { skip = 1 }
    {
        indent = $0
        sub(/[^ \t].*/, "", indent)
    }
    !skip && /^impl[ <]/ { owner = impl_type($0) }
    !skip && /^}/ { owner = "" }
    !skip && match($0, /^[ \t]*pub[ \t]+((const|unsafe|async)[ \t]+)*(fn|struct|enum|trait|const|type|static)[ \t]+[A-Za-z_][A-Za-z0-9_]*/) {
        name = substr($0, RSTART, RLENGTH)
        sub(/.*[ \t]/, "", name)
        key = module_path(FILENAME)
        if (indent != "" && owner != "") key = key "::" owner
        key = key "::" name
        printf "%s#[deprecated(note = \"AUDIT %s\")]\n", indent, key > out
        printf "%s\t%s:%d\n", key, FILENAME, FNR > items
    }
    !skip && /^[ \t]*(pub(\([a-z]+\))?[ \t]+)?use[ \t]/ { printf "%s#[allow(deprecated)]\n", indent > out }
    { print > out }' $(find crates/*/src -name '*.rs' -not -path '*/src/bin/*' | sort)

# Checks the runtime targets in the copy and collects the items whose
# note some warning carries.
used=$work/used
: > "$used"
check() {
    local dir=$1 target=$PWD/$work/target log
    shift
    log=$(cd "$copy/$dir" && cargo check --offline --locked --quiet --message-format short \
        --target-dir "$target" "$@" 2>&1) || {
        printf '%s\n' "$log" >&2
        echo "pub_audit: cargo check failed in $copy/$dir" >&2
        exit 1
    }
    printf '%s\n' "$log" | sed -n 's/^.*: warning: use of deprecated .*: AUDIT //p' >> "$used"
}
check . --workspace --lib --bins --examples
check c880bench

awk -v list_only="$list_only" -v allow="$allow" -v items="$work/items" '
    { used[$0] = 1 }
    END {
        while ((getline entry < allow) > 0) {
            if (entry ~ /^[ \t]*(#|$)/) continue
            split(entry, f, /[ \t]+/)
            allowed[f[1]] = entry
            if (entry !~ /^[^ \t]+[ \t]+(oracle|paper|lint):[ \t]*[^ \t]/) {
                printf "%s: needs a reason tagged oracle:, paper: or lint: -- %s\n", allow, entry
                status = 1
            }
        }
        while ((getline entry < items) > 0) {
            split(entry, f, "\t")
            if (f[1] in used || f[1] in listed) continue
            listed[f[1]] = 1
            if (list_only) {
                printf "%s\t%s\n", f[1], f[2]
            } else if (!(f[1] in allowed)) {
                printf "no runtime caller and not in %s: %s (%s)\n", allow, f[1], f[2]
                status = 1
            }
        }
        if (list_only) exit 0
        for (key in allowed) {
            if (!(key in listed)) {
                printf "%s lists %s, which has a runtime caller or no longer exists\n", allow, key
                status = 1
            }
        }
        exit status
    }' "$used"
