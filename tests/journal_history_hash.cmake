# Pins the causal recovery journal of the fixed-seed Figure-10 run that
# fig10_history_hash.cmake pins the trace and metrics of:
#
#   sharqfec_sim --topo fig10 --packets 128 --until 45 --seed 7 --journal
#
# The journal records every recovery decision (loss detection, request
# timers, NACK send/suppress/dedup, repair scheduling, completion, ZCR
# elections) with its cause, so a refactor of the LDP/RP rules that moves
# any decision, even one the packet trace cannot see, fails here. Same
# contract as the other history pins (docs/DETERMINISM.md): a deliberate
# change re-pins the constant in the same commit, with the diff documented.
#
#   cmake -DSIM=<path to sharqfec_sim> -P journal_history_hash.cmake

set(EXPECTED_JOURNAL_SHA256 "6bf684e5146cb81a2a208c9c2856cd53acdcc93cbbdd4cbba251c206a5442edd")

if(NOT SIM)
  message(FATAL_ERROR "pass -DSIM=<path to sharqfec_sim>")
endif()
execute_process(
  COMMAND "${SIM}" --topo fig10 --packets 128 --until 45 --seed 7
          --journal journal_history.jsonl
  OUTPUT_QUIET
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sharqfec_sim exited with ${rc}")
endif()
file(SHA256 journal_history.jsonl journal_sha256)
if(NOT journal_sha256 STREQUAL EXPECTED_JOURNAL_SHA256)
  message(FATAL_ERROR
    "Figure-10 recovery journal drifted from the pinned run\n"
    "  journal ${journal_sha256} (pinned ${EXPECTED_JOURNAL_SHA256})")
endif()
message(STATUS "Figure-10 recovery journal matches the pinned hash")
