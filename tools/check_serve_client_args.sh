#!/usr/bin/env bash
# Refusal cases of serve_client's argument parsing: each must print the
# usage text and exit 2 before anything is dialed or started. A port out of
# range, a request count below 1, a connection count outside 1-64 and a
# feature that is not a number are all refused. Every case that names a
# valid port names port 1, where nothing listens, so a case that slipped
# through to the network would exit 1 instead.
#
# Usage: tools/check_serve_client_args.sh <path to the serve_client binary>
set -u

client="${1:?usage: check_serve_client_args.sh <serve_client binary>}"
failures=0

expect_refused() {
  local err code
  err="$(timeout 10 "$client" "$@" 2>&1 >/dev/null </dev/null)"
  code=$?
  if [[ $code -ne 2 ]] || ! grep -q '^usage:' <<<"$err"; then
    echo "FAIL: serve_client $* exited $code, expected 2 with the usage text"
    failures=$((failures + 1))
  fi
}

# Ports: 1-65535, and 0-65535 for serve.
expect_refused ping 70000
expect_refused ping 65536
expect_refused ping 0
expect_refused ping -1
expect_refused ping abc
expect_refused ping 80x
expect_refused ping ""
expect_refused models 70000
expect_refused predict 70000 0.5
expect_refused load 70000 10 4
expect_refused serve 65536
expect_refused serve -1
expect_refused serve abc

# Features: every comma-separated field must be a number.
expect_refused predict 1 abc
expect_refused predict 1 1,,2
expect_refused predict 1 0.5,
expect_refused predict 1 ""

# load: requests >= 1, connections 1-64.
expect_refused load 1 -5
expect_refused load 1 0
expect_refused load 1 abc
expect_refused load 1 99999999999999999999
expect_refused load 1 10 -1
expect_refused load 1 10 0
expect_refused load 1 10 65
expect_refused load 1 10 100000
expect_refused load 1 10 4x
expect_refused load --model demo 1 10 65

if [[ $failures -ne 0 ]]; then
  echo "serve_client_args: $failures case(s) not refused"
  exit 1
fi
echo "serve_client_args: every bad argument refused with exit 2"
