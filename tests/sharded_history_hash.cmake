# Pins the stdout of a chaos campaign on the zone-sharded engine with two
# workers:
#
#   chaos_sim --plans 3 --seed 5 --threads 2
#
# Each plan builds a Figure-10 session on a ShardRuntime (set-up runs
# through the worker pool), streams through loss and corruption windows,
# partitions and node kills and restarts (Session::remove_receiver and
# add_receiver at barriers), and prints its invariants and metrics
# export. The worker count never changes the history (the determinism
# contract in src/sim/shard_runtime.hpp), so this hash also holds for
# --threads 1; a change to sharded construction, the pool or the barrier
# merge that moves any byte fails here. Same contract as the other
# history pins (docs/DETERMINISM.md): a deliberate change re-pins the
# constant in the same commit, with the diff documented.
#
#   cmake -DCHAOS=<path to chaos_sim> -P sharded_history_hash.cmake

set(EXPECTED_SHARDED_SHA256 "6f85c89b9885e0eadef94166190c9261bb181d9d701a0576d07080cde631ec54")

if(NOT CHAOS)
  message(FATAL_ERROR "pass -DCHAOS=<path to chaos_sim>")
endif()
execute_process(
  COMMAND "${CHAOS}" --plans 3 --seed 5 --threads 2
  OUTPUT_FILE sharded_history.json
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "chaos_sim exited with ${rc}")
endif()
file(SHA256 sharded_history.json sharded_sha256)
if(NOT sharded_sha256 STREQUAL EXPECTED_SHARDED_SHA256)
  message(FATAL_ERROR
    "sharded chaos campaign drifted from the pinned run\n"
    "  stdout ${sharded_sha256} (pinned ${EXPECTED_SHARDED_SHA256})")
endif()
message(STATUS "sharded chaos campaign matches the pinned hash")
