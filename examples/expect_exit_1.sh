#!/bin/sh
# Runs a command and passes only if it exits with status 1 and prints the
# expected text on stderr. Any other status fails, a death by signal
# (128 + N) included.
#
#   sh expect_exit_1.sh EXPECTED_TEXT COMMAND [ARGS...]
expected=$1
shift
stderr=$("$@" 2>&1 >/dev/null)
status=$?
printf '%s\n' "$stderr"
if [ "$status" -ne 1 ]; then
  echo "expected exit status 1, got $status" >&2
  exit 1
fi
case $stderr in
  *"$expected"*) exit 0 ;;
esac
echo "stderr does not contain: $expected" >&2
exit 1
