#!/bin/sh
# Runs a command and passes only if it exits with the expected status (1,
# or N after `--status N`) and prints the expected text on stderr. Any other
# status fails, a death by signal (128 + N) included.
#
#   sh expect_exit_1.sh [--status N] EXPECTED_TEXT COMMAND [ARGS...]
want=1
if [ "$1" = "--status" ]; then
  want=$2
  shift 2
fi
expected=$1
shift
stderr=$("$@" 2>&1 >/dev/null)
status=$?
printf '%s\n' "$stderr"
if [ "$status" -ne "$want" ]; then
  echo "expected exit status $want, got $status" >&2
  exit 1
fi
case $stderr in
  *"$expected"*) exit 0 ;;
esac
echo "stderr does not contain: $expected" >&2
exit 1
