#!/usr/bin/env bash
# CLI contract test for idde_tool (ISSUE PR 5, satellite b).
#
# Every failure path must produce exactly one structured
# "idde_tool: error: ..." line on stderr and a nonzero exit — never an
# abort, a raw assert message, or a backtrace. Usage:
#
#   test_idde_tool_cli.sh /path/to/idde_tool
set -u

TOOL=${1:?usage: test_idde_tool_cli.sh /path/to/idde_tool}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
FAILURES=0

# run <expected_exit> <args...> — captures stderr for the error checks.
run() {
  local expected=$1
  shift
  "$TOOL" "$@" >"$WORK/stdout" 2>"$WORK/stderr"
  local actual=$?
  if [ "$actual" -ne "$expected" ]; then
    echo "FAIL: '$TOOL $*' exited $actual, want $expected" >&2
    cat "$WORK/stderr" >&2
    FAILURES=$((FAILURES + 1))
    return 1
  fi
  # 134 = SIGABRT, 139 = SIGSEGV: any signal death is an automatic fail
  # (caught above by the exit-code mismatch, spelled out here for clarity).
  return 0
}

expect_error_line() {
  if ! grep -q '^idde_tool: error: ' "$WORK/stderr"; then
    echo "FAIL: expected a structured 'idde_tool: error:' line, got:" >&2
    cat "$WORK/stderr" >&2
    FAILURES=$((FAILURES + 1))
  fi
  if [ "$(wc -l <"$WORK/stderr")" -ne 1 ]; then
    echo "FAIL: expected exactly one stderr line, got:" >&2
    cat "$WORK/stderr" >&2
    FAILURES=$((FAILURES + 1))
  fi
}

# --- failure paths ---------------------------------------------------------

run 1 # no arguments: usage + exit 1

run 2 frobnicate && expect_error_line

run 1 eval --instance "$WORK/does-not-exist.json" && expect_error_line

printf 'this is not json{' >"$WORK/garbage.json"
run 1 eval --instance "$WORK/garbage.json" && expect_error_line
grep -q 'invalid JSON at byte' "$WORK/stderr" || {
  echo "FAIL: parse failure should report a byte offset" >&2
  FAILURES=$((FAILURES + 1))
}

printf '{"format":"idde-instance-v2","servers":[],"users":[],"data":[],"requests":[[0]],"edges":[],"cloud_speed_mbps":1,"radio":{"channels_per_server":1,"noise_watts":0,"bandwidth_mbps":[],"gain":[],"neighbours":[]}}' \
  >"$WORK/bad-shape.json"
run 1 eval --instance "$WORK/bad-shape.json" && expect_error_line

run 1 replay --instance "$WORK/garbage.json" && expect_error_line

# A negative count in generator params fails as invalid input naming its
# key, instead of wrapping to a huge size_t.
expect_count_rejected() {
  local key=$1
  printf '%s' "$2" >"$WORK/bad-params.json"
  run 1 gen --scenario "$WORK/bad-params.json" --out "$WORK/bad-count.json" \
    && expect_error_line
  grep -q "invalid input: .*$key" "$WORK/stderr" || {
    echo "FAIL: a bad $key was reported as:" >&2
    cat "$WORK/stderr" >&2
    FAILURES=$((FAILURES + 1))
  }
}
expect_count_rejected server_count '{"server_count":-1,"eua":{"server_count":-1}}'
expect_count_rejected max_requests_per_user '{"max_requests_per_user":-1}'

# expect_rejected <key> <args...>: exits 1 with one error line naming <key>.
expect_rejected() {
  local key=$1
  shift
  run 1 "$@" && expect_error_line
  grep -q "^idde_tool: error: .*$key" "$WORK/stderr" || {
    echo "FAIL: '$*' did not name $key:" >&2
    cat "$WORK/stderr" >&2
    FAILURES=$((FAILURES + 1))
  }
}

# A wrong type, a fractional count or a value outside its domain is never
# rewritten to a default or truncated, and never reaches an assert.
expect_scenario_rejected() {
  printf '%s' "$2" >"$WORK/bad-scenario.json"
  expect_rejected "$1" gen --scenario "$WORK/bad-scenario.json" \
    --out "$WORK/bad-scenario-instance.json"
}
expect_scenario_rejected server_count '{"server_count":"7"}'
expect_scenario_rejected user_count '{"user_count":12.9}'
expect_scenario_rejected density '{"density":-1}'
expect_scenario_rejected eua.area_side_m '{"eua":{"area_side_m":-10}}'
expect_scenario_rejected cloud_speed_mbps '{"cloud_speed_mbps":0}'
expect_scenario_rejected zipf_exponent '{"zipf_exponent":-3}'
expect_scenario_rejected min_power_watts \
  '{"min_power_watts":10,"max_power_watts":1}'

# --- happy path ------------------------------------------------------------

cd "$WORK" || exit 1
run 0 gen --out "$WORK/instance.json" --seed 3 || true

# gen is deterministic: the same seed writes the same bytes.
run 0 gen --out "$WORK/instance-again.json" --seed 3 || true
cmp -s "$WORK/instance.json" "$WORK/instance-again.json" || {
  echo "FAIL: two gen runs with seed 3 wrote different files" >&2
  FAILURES=$((FAILURES + 1))
}

# One bad byte inside the streamed gain rows is reported at that byte:
# two bytes into the first value of the first non-empty row (the file is
# idde-instance-v2, one row of gains per user) is a mantissa digit.
grep -q '"format": "idde-instance-v2"' "$WORK/instance.json" || {
  echo "FAIL: gen did not write an idde-instance-v2 file" >&2
  FAILURES=$((FAILURES + 1))
}
gain_key=$(grep -b -o '"gain": \[' "$WORK/instance.json" | head -n 1 |
  cut -d: -f1)
first_digit=$(tail -c +"$((gain_key + 1))" "$WORK/instance.json" |
  head -c 64 | grep -b -o '[0-9]' | head -n 1 | cut -d: -f1)
bad_byte=$((gain_key + first_digit + 2))
cp "$WORK/instance.json" "$WORK/bad-gain.json"
printf 'x' | dd of="$WORK/bad-gain.json" bs=1 seek="$bad_byte" conv=notrunc \
  status=none
run 1 eval --instance "$WORK/bad-gain.json" && expect_error_line
grep -q "invalid JSON at byte $bad_byte:" "$WORK/stderr" || {
  echo "FAIL: a bad byte at $bad_byte in the gain array was reported as:" >&2
  cat "$WORK/stderr" >&2
  FAILURES=$((FAILURES + 1))
}
# solve writes the strategy whose metrics it printed: eval of the written
# file reports the same L_avg. IDDE-IP's budget is wall-clock, so a tight
# one makes a second solve likely to differ.
for approach in IDDE-G IDDE-IP; do
  run 0 solve --instance "$WORK/instance.json" --approach "$approach" \
    --ip-budget-ms 2 --out "$WORK/strategy-$approach.json" --seed 3 || true
  solved=$(grep -o 'L_avg [0-9.]* ms' "$WORK/stdout")
  run 0 eval --instance "$WORK/instance.json" \
    --strategy "$WORK/strategy-$approach.json" || true
  evaluated=$(grep -o 'L_avg [0-9.]* ms' "$WORK/stdout")
  if [ -z "$solved" ] || [ "$solved" != "$evaluated" ]; then
    echo "FAIL: $approach solve printed '$solved', eval of its output" \
      "'$evaluated'" >&2
    FAILURES=$((FAILURES + 1))
  fi
done
cp "$WORK/strategy-IDDE-G.json" "$WORK/strategy.json"

# A hand-edited strategy that moves the first allocated user onto a server
# outside its coverage (Eq. 1) fails with one structured error line, never
# an abort. Every server is tried in turn: the covering ones still load.
servers=$(grep -c '"radius_m"' "$WORK/instance.json")
rejected=0
for ((k = 0; k < servers; ++k)); do
  sed "0,/\"server\": [0-9]*/s//\"server\": $k/" "$WORK/strategy.json" \
    >"$WORK/moved.json"
  "$TOOL" eval --instance "$WORK/instance.json" \
    --strategy "$WORK/moved.json" >"$WORK/stdout" 2>"$WORK/stderr"
  status=$?
  if [ "$status" -eq 1 ] && grep -q 'does not cover' "$WORK/stderr"; then
    expect_error_line
    rejected=$((rejected + 1))
  elif [ "$status" -ne 0 ] && ! grep -q '^violation: ' "$WORK/stderr"; then
    echo "FAIL: eval of the strategy moved to server $k exited $status:" >&2
    cat "$WORK/stderr" >&2
    FAILURES=$((FAILURES + 1))
  fi
done
[ "$rejected" -gt 0 ] || {
  echo "FAIL: no server outside the first user's coverage was rejected" >&2
  FAILURES=$((FAILURES + 1))
}
run 0 replay --instance "$WORK/instance.json" \
  --strategy "$WORK/strategy.json" --load 4 --policy deadline-aware \
  --chaos --seed 3 --out "$WORK/report.json" || true
[ -s "$WORK/report.json" ] || {
  echo "FAIL: replay did not write report.json" >&2
  FAILURES=$((FAILURES + 1))
}
grep -q '"goodput_flows"' "$WORK/report.json" || {
  echo "FAIL: report.json is missing SLO stats" >&2
  FAILURES=$((FAILURES + 1))
}

# Hostile QoS documents and flag values fail naming the key.
expect_qos_rejected() {
  printf '%s' "$2" >"$WORK/bad-qos.json"
  expect_rejected "$1" replay --instance "$WORK/instance.json" \
    --strategy "$WORK/strategy.json" --qos "$WORK/bad-qos.json"
}
expect_qos_rejected admission.service_slots \
  '{"admission":{"service_slots":-1}}'
expect_qos_rejected admission.service_slots \
  '{"admission":{"service_slots":1.7}}'
expect_qos_rejected arrivals.window_s \
  '{"arrivals":{"process":"poisson","window_s":0}}'
expect_rejected arrivals.load_multiplier replay \
  --instance "$WORK/instance.json" --strategy "$WORK/strategy.json" --load -1

# A bad policy name through the same top-level handler.
run 1 replay --instance "$WORK/instance.json" \
  --strategy "$WORK/strategy.json" --policy drop-everything \
  && expect_error_line

if [ "$FAILURES" -ne 0 ]; then
  echo "$FAILURES CLI contract check(s) failed" >&2
  exit 1
fi
echo "idde_tool CLI contract: all checks passed"
