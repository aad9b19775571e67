#!/usr/bin/env bash
# Mutation check: apply each entry of scripts/mutants.txt, one at a time, to
# a scratch copy of the tree, run every unit and integration test of the
# workspace (`cargo test --workspace --tests`: the suites the entry names
# are among them, so they run once; doc examples are not run), and print a
# kill table: mutant → the tests that failed, and whether the named suites
# were among them.
#
#   scripts/mutants.sh            every entry of the list
#   scripts/mutants.sh ID...      the named entries only
#   scripts/mutants.sh --check    check the list against the tree; builds
#                                 and runs nothing (scripts/verify.sh runs it)
#
# The copy and its target directory live under ${TMPDIR:-/tmp}/sw-mutants
# and persist between runs, so each mutant rebuilds only the crates below
# the file it changes. The working tree is never written, and is read only
# once, before the first mutant: each mutated file is restored from the
# copy's own contents, so one run measures one tree state however the
# working tree is edited while it runs.
#
# An entry is a block of `key: value` lines, blocks separated by a blank
# line, `#` starting a comment line:
#
#   id:      a unique name
#   file:    the file to mutate, relative to the repository root
#   find:    a literal string that occurs exactly once in that file
#   replace: what it becomes (may be empty)
#   killers: the suites expected to kill it, space separated, each
#            `<package>/<target>` or `<package>/<target>::<test name filter>`
#            (`<target>` is `lib` or an integration test's name)
#   equivalent: (optional) why no test can kill it; the table then
#            expects it to survive and `killers` may be empty
#
# In `find` and `replace`, `\n` stands for a line break.
set -uo pipefail
cd "$(dirname "$0")/.."
list=scripts/mutants.txt

ids=() files=() finds=() replaces=() killers=() equivs=()
parse_list() {
  local line key value id="" file="" find="" replace="" kill="" equiv="" have_replace=0
  flush() {
    if [[ -n $id ]]; then
      ids+=("$id") files+=("$file") finds+=("$find") replaces+=("$replace")
      killers+=("$kill") equivs+=("$equiv")
      if [[ -z $file || -z $find || $have_replace -eq 0 ]]; then
        echo "mutants: $list: entry '$id' lacks file, find or replace" >&2
        bad=1
      fi
    fi
    id="" file="" find="" replace="" kill="" equiv="" have_replace=0
  }
  while IFS= read -r line || [[ -n $line ]]; do
    [[ $line == \#* ]] && continue
    if [[ -z ${line//[[:space:]]/} ]]; then
      flush
      continue
    fi
    key=${line%%:*}
    value=${line#*:}
    value=${value# }
    case $key in
      id) id=$value ;;
      file) file=$value ;;
      find) find=${value//\\n/$'\n'} ;;
      replace) replace=${value//\\n/$'\n'} have_replace=1 ;;
      killers) kill=$value ;;
      equivalent) equiv=$value ;;
      *)
        echo "mutants: $list: unknown key '$key' in entry '$id'" >&2
        bad=1
        ;;
    esac
  done <"$list"
  flush
}

# The directory of the package named `$1` (the root package is the
# repository itself), or nothing.
package_dir() {
  if grep -q "^name = \"$1\"$" Cargo.toml; then
    echo .
    return
  fi
  local manifest
  for manifest in crates/*/Cargo.toml crates/shims/*/Cargo.toml; do
    if grep -q "^name = \"$1\"$" "$manifest"; then
      dirname "$manifest"
      return
    fi
  done
}

# Whether the suite spec `$1` names a package, a target and (after `::`) a
# test that exist. Reads sources only.
suite_exists() {
  local spec=$1 pkg target test dir files
  pkg=${spec%%/*}
  target=${spec#*/}
  test=""
  if [[ $target == *::* ]]; then
    test=${target#*::}
    target=${target%%::*}
  fi
  dir=$(package_dir "$pkg")
  [[ -n $dir ]] || return 1
  if [[ $target == lib ]]; then
    [[ -f $dir/src/lib.rs ]] || return 1
    files=$(find "$dir/src" -name '*.rs')
  else
    [[ -f $dir/tests/$target.rs ]] || return 1
    files=$dir/tests/$target.rs
  fi
  [[ -z $test ]] && return 0
  # shellcheck disable=SC2086
  grep -q "fn ${test##*::}\b" $files
}

# How many times `$2` occurs in the file `$1`.
occurrences() {
  local content rest count=0
  IFS= read -r -d '' content <"$1"
  while [[ $content == *"$2"* ]]; do
    count=$((count + 1))
    rest=${content#*"$2"}
    content=$rest
  done
  echo "$count"
}

check_list() {
  local i n spec
  for i in "${!ids[@]}"; do
    if [[ ${ids[*]:0:i} =~ (^| )${ids[i]}( |$) ]]; then
      echo "mutants: id '${ids[i]}' is listed twice" >&2
      bad=1
    fi
    if [[ ! -f ${files[i]} ]]; then
      echo "mutants: ${ids[i]}: no file ${files[i]}" >&2
      bad=1
      continue
    fi
    n=$(occurrences "${files[i]}" "${finds[i]}")
    if [[ $n -ne 1 ]]; then
      echo "mutants: ${ids[i]}: the search string occurs $n times in ${files[i]}, not once" >&2
      bad=1
    fi
    if [[ -z ${killers[i]} && -z ${equivs[i]} ]]; then
      echo "mutants: ${ids[i]}: names no killer and is not marked equivalent" >&2
      bad=1
    fi
    for spec in ${killers[i]}; do
      if ! suite_exists "$spec"; then
        echo "mutants: ${ids[i]}: no test suite or test '$spec'" >&2
        bad=1
      fi
    done
  done
}

bad=0
parse_list
check_list
if [[ $bad -ne 0 ]]; then
  echo "mutants: FAILED ($list does not match the tree)" >&2
  exit 1
fi
if [[ ${1:-} == --check ]]; then
  echo "mutants: $list: ${#ids[@]} entries match the tree"
  exit 0
fi

work=${TMPDIR:-/tmp}/sw-mutants
tree=$work/tree
export CARGO_TARGET_DIR=$work/target
mkdir -p "$tree" "$work/logs"

# Bring the copy up to the working tree (tracked and unignored files),
# rewriting only what differs so that unchanged crates stay built.
sync_tree() {
  local f
  git ls-files -z --cached --others --exclude-standard | sort -z >"$work/files"
  while IFS= read -r -d '' f; do
    [[ -f $f ]] || continue
    if ! cmp -s "$f" "$tree/$f"; then
      mkdir -p "$tree/$(dirname "$f")"
      cp "$f" "$tree/$f"
    fi
  done <"$work/files"
  (cd "$tree" && find . -type f -printf '%P\0' | sort -z) |
    comm -z -23 - "$work/files" |
    while IFS= read -r -d '' f; do rm -f "$tree/$f"; done
}

# Write the mutant `$1` (an index into the list) into the copy, keeping
# the unmutated file for `restore`.
apply() {
  local content path=$tree/${files[$1]}
  cp "$path" "$work/unmutated"
  IFS= read -r -d '' content <"$path"
  printf '%s' "${content/"${finds[$1]}"/"${replaces[$1]}"}" >"$path"
}

# Put back the file the mutant `$1` changed (a fresh mtime, so cargo
# rebuilds it).
restore() {
  cp "$work/unmutated" "$tree/${files[$1]}"
}

# Map every test executable of the workspace to `<package>/<target>`.
build_map() {
  cargo test --offline --workspace --no-run --message-format=json 2>/dev/null |
    sed -n 's/.*"package_id":"\([^"]*\)".*"target":{[^}]*"kind":\["\([a-z-]*\)"\][^}]*"name":"\([^"]*\)".*"executable":"\([^"]*\)".*/\1 \2 \3 \4/p' |
    while read -r id kind name exe; do
      local pkg=${id#*#}
      if [[ $pkg == *@* ]]; then pkg=${pkg%@*}; else pkg=${id%#*} pkg=${pkg##*/}; fi
      [[ $kind == lib ]] && name=lib
      echo "$(basename "$exe") $pkg/$name"
    done
}

# The failing tests of a `cargo test` log, one `<package>/<target>::<test>`
# a line; a target that ended without a result line reads
# `<package>/<target>::(crashed)`.
failures() {
  awk -v map="$work/map" '
    BEGIN { while ((getline line < map) > 0) { split(line, f, " "); label[f[1]] = f[2] } }
    function close_target() {
      if (current != "" && !finished && !failed) print current "::(crashed)"
    }
    /^ *Running / {
      close_target()
      exe = $NF; gsub(/[()]/, "", exe); n = split(exe, parts, "/"); exe = parts[n]
      current = (exe in label) ? label[exe] : exe
      finished = 0; failed = 0; next
    }
    /^ *Doc-tests / { close_target(); current = $2 "/doc"; finished = 0; failed = 0; next }
    /^test .* \.\.\. FAILED$/ {
      sub(/^test /, ""); sub(/ \.\.\. FAILED$/, ""); sub(/ - should panic$/, "")
      print current "::" $0; failed = 1; next
    }
    /^test result: / { finished = 1 }
    END { close_target() }
  ' "$1" | sort -u
}

if [[ $# -gt 0 ]]; then
  selected=()
  for want in "$@"; do
    found=0
    for i in "${!ids[@]}"; do
      [[ ${ids[i]} == "$want" ]] && selected+=("$i") found=1
    done
    [[ $found -eq 1 ]] || { echo "mutants: no entry '$want'" >&2; exit 2; }
  done
else
  selected=("${!ids[@]}")
fi

sync_tree
cd "$tree"
echo "mutants: building the unmutated copy in $tree" >&2
if ! cargo test -q --offline --workspace --tests --no-run 2>"$work/logs/base.log"; then
  echo "mutants: the unmutated tree does not build (see $work/logs/base.log)" >&2
  exit 1
fi
build_map >"$work/map"

table=$work/table.txt
: >"$table"
unexpected=0
for i in "${selected[@]}"; do
  id=${ids[i]}
  log=$work/logs/$id.log
  echo "mutants: [$id] ${files[i]}" >&2
  apply "$i"
  failed="" t0=$SECONDS
  if ! cargo test -q --offline --workspace --tests --no-run >"$log" 2>&1; then
    verdict="UNVIABLE (does not build)"
  else
    timeout 1800 cargo test --offline --workspace --tests --no-fail-fast >"$log" 2>&1
    rc=$?
    failed=$(failures "$log" | paste -sd ' ')
    [[ $rc -eq 124 ]] && failed="${failed:+$failed }timed-out"
    if [[ -n $failed || $rc -ne 0 ]]; then
      verdict=KILLED
      # A named suite killed it when one of its tests (or the target) failed.
      missed=1
      for spec in ${killers[i]}; do
        target=${spec%%::*} filter=${spec#*::}
        [[ $spec == *::* ]] || filter=""
        for f in $failed; do
          [[ $f == "$target::"*"$filter"* || $f == "$target::(crashed)" ]] && missed=0
        done
      done
      [[ -n ${killers[i]} && $missed -eq 1 ]] && verdict="KILLED, not by its named suites"
    else
      verdict=SURVIVED
    fi
  fi
  restore "$i"
  if [[ -n ${equivs[i]} ]]; then
    [[ $verdict == SURVIVED ]] && verdict="SURVIVED (equivalent)" || unexpected=$((unexpected + 1))
  elif [[ $verdict != KILLED ]]; then
    unexpected=$((unexpected + 1))
  fi
  echo "mutants: [$id] $verdict in $((SECONDS - t0)) s" >&2
  printf '%s\t%s\t%s\n' "$id" "$verdict" "${failed:--}" | tee -a "$table"
done
echo "mutants: ${#selected[@]} run, $unexpected not as listed; table in $table" >&2
[[ $unexpected -eq 0 ]]
