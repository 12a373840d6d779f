# Assertions shared by the console steps of workflows/tests.yml; source it, then call
#   quiet CMD...                  exit 0, nothing on stderr, and nothing or `all checks passed` on stdout
#   replays PREFIX OUTPUT ARGS... `projsum ARGS --out-prefix PREFIX` and its replay pass `quiet`,
#                                 and PREFIX.OUTPUT equals PREFIX.replay.OUTPUT byte for byte
#   refuses CODE PREFIX ARGS...   `projsum ARGS` exits CODE, and no file PREFIX.* exists after
# Each returns 1 on failure, with what failed on stderr; a step's `bash -e` stops there.

console_tmp=$(mktemp -d)

quiet() {
  local status=0
  "$@" > "$console_tmp/out" 2> "$console_tmp/err" || status=$?
  cat "$console_tmp/out" "$console_tmp/err"
  if [ "$status" -ne 0 ] || [ -s "$console_tmp/err" ] ||
      { [ -s "$console_tmp/out" ] && ! echo "all checks passed" | cmp -s - "$console_tmp/out"; }; then
    echo "quiet: \`$*\` exited $status, or printed to stderr, or printed more than \`all checks passed\`" >&2
    return 1
  fi
}

replays() {
  local prefix=$1 output=$2
  shift 2
  quiet projsum "$@" --out-prefix "$prefix" || return 1
  quiet projsum replay --manifest "$prefix.manifest.json" || return 1
  cmp "$prefix.$output" "$prefix.replay.$output"
}

refuses() {
  local code=$1 prefix=$2 status=0 left
  shift 2
  projsum "$@" || status=$?
  left=$(ls -d "$prefix".* 2> /dev/null | tr '\n' ' ')
  if [ "$status" -ne "$code" ] || [ -n "$left" ]; then
    echo "refuses: \`projsum $*\` exited $status, not $code, or left $left" >&2
    return 1
  fi
}
