#!/usr/bin/env bash
# Tripwire for the rule "code without a runtime caller stays only as a
# test oracle or as paper content".
#
# Lists every `pub` fn/struct/enum/trait/const/type defined in
# crates/*/src (outside `#[cfg(test)]` modules) whose name appears in no
# runtime file except on its own definition line. Runtime files are the
# library code outside `#[cfg(test)]` modules, the facade (src/), the
# examples, the binaries (crates/bench/src/bin) and the C880 benchmark
# (c880bench/src). Comments do not count as uses; tests, benches and doc
# examples are not runtime callers.
#
# Every listed item must have a line in scripts/pub_audit.allow giving
# its reason to stay, tagged `oracle:` (a test oracle for code that
# stays) or `paper:` (content of the source paper). The script fails on
# a listed item without a line, on a line whose item is no longer listed
# (it gained a runtime caller or was deleted), and on a line without one
# of the two tags.
#
# Matching is by name only, so this is a tripwire and not a proof: an
# unused method shares its name with every other item of that name (an
# unused `Foo::len` hides behind a used `Bar::len`), a name that also
# occurs in an unrelated runtime line counts as used, and an item whose
# only caller is another item without a runtime caller counts as used.
# A file is read up to its first column-0 `#[cfg(test)]` line, so code
# after the test module is not seen.
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

# Prints "file<TAB>line<TAB>code" for each code line of the given files,
# up to the file's `#[cfg(test)]` module, without comments.
strip() {
    awk '
        FNR == 1 { skip = 0 }
        /^#\[cfg\(test\)\]/ { skip = 1 }
        skip { next }
        {
            line = $0
            sub(/^[ \t]*\/\/.*/, "", line)
            sub(/[ \t]+\/\/.*/, "", line)
            if (line ~ /[^ \t]/) printf "%s\t%d\t%s\n", FILENAME, FNR, line
        }' "$@"
}

library=$(find crates/*/src -name '*.rs' | sort)
runtime=$(find src examples c880bench/src -name '*.rs' | sort)

# shellcheck disable=SC2086  # word splitting makes the file lists
strip $library $runtime | awk -F'\t' -v list_only="$list_only" -v allow="$allow" '
    # The items one line defines, of any visibility: occurrences of these
    # names on that line are the definition, not a use.
    function defined_names(code,    rest, out, m) {
        out = " "
        rest = code
        while (match(rest, /(fn|struct|enum|trait|const|type|static|mod)[ \t]+[A-Za-z_][A-Za-z0-9_]*/)) {
            m = substr(rest, RSTART, RLENGTH)
            sub(/^[a-z]+[ \t]+/, "", m)
            out = out m " "
            rest = substr(rest, RSTART + RLENGTH)
        }
        return out
    }
    # The Rust path of a library file: crates/core/src/fit.rs -> mis_core::fit.
    function module_path(file,    parts, n, path, i) {
        n = split(file, parts, "/")
        path = "mis_" parts[2]
        for (i = 4; i <= n; i++) {
            sub(/\.rs$/, "", parts[i])
            if (i == n && (parts[i] == "lib" || parts[i] == "mod" || parts[i] == "main")) continue
            path = path "::" parts[i]
        }
        return path
    }
    # The type an `impl` header line implements: its last path segment,
    # after `for` when it implements a trait.
    function impl_type(code,    rest, depth, i, c, out) {
        rest = code
        sub(/^impl/, "", rest)
        # Drop the generic parameter list right after `impl`.
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
    {
        file = $1; line = $2; code = $3
        if (file != current_file) { current_file = file; owner = "" }
        library_file = file ~ /^crates\/[^\/]+\/src\//
        if (library_file && code ~ /^impl[ <]/) owner = impl_type(code)
        if (library_file && code ~ /^}/) owner = ""
        if (library_file && match(code, /^[ \t]*pub[ \t]+((const|unsafe|async)[ \t]+)*(fn|struct|enum|trait|const|type)[ \t]+[A-Za-z_][A-Za-z0-9_]*/)) {
            name = substr(code, RSTART, RLENGTH)
            sub(/.*[ \t]/, "", name)
            key = module_path(file)
            if (code ~ /^[ \t]/ && owner != "") key = key "::" owner
            items[++count] = key "::" name
            item_name[count] = name
            item_site[count] = file ":" line
        }
        skip = defined_names(code)
        rest = code
        while (match(rest, /[A-Za-z_][A-Za-z0-9_]*/)) {
            word = substr(rest, RSTART, RLENGTH)
            rest = substr(rest, RSTART + RLENGTH)
            if (index(skip, " " word " ") == 0) used[word] = 1
        }
    }
    END {
        while ((getline entry < allow) > 0) {
            if (entry ~ /^[ \t]*(#|$)/) continue
            split(entry, f, /[ \t]+/)
            allowed[f[1]] = entry
            if (entry !~ /^[^ \t]+[ \t]+(oracle|paper):[ \t]*[^ \t]/) {
                printf "%s: needs a reason tagged oracle: or paper: -- %s\n", allow, entry
                status = 1
            }
        }
        for (i = 1; i <= count; i++) {
            if (used[item_name[i]]) continue
            listed[items[i]] = 1
            if (list_only) {
                printf "%s\t%s\n", items[i], item_site[i]
            } else if (!(items[i] in allowed)) {
                printf "no runtime caller and not in %s: %s (%s)\n", allow, items[i], item_site[i]
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
    }'
