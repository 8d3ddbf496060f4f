# Pins the packet trace of the sender-only ablation on the fixed-seed
# Figure-10 run:
#
#   sharqfec_sim --topo fig10 --protocol so --packets 128 --until 45 --seed 7
#
# `so` is SHARQFEC with Config::sender_only set, so only the source may
# repair; the other history pins run with every receiver eligible and never
# reach that gate. Same contract as fig10_history_hash.cmake
# (docs/DETERMINISM.md): a deliberate change re-pins the constant in the
# same commit, with the diff documented.
#
#   cmake -DSIM=<path to sharqfec_sim> -P so_history_hash.cmake

set(EXPECTED_TRACE_SHA256 "abcb065b1707d2bd4ca48baec245e66d5c063e34b04ecba6c5cd53716d59b853")

if(NOT SIM)
  message(FATAL_ERROR "pass -DSIM=<path to sharqfec_sim>")
endif()
execute_process(
  COMMAND "${SIM}" --topo fig10 --protocol so --packets 128 --until 45
          --seed 7 --trace so_history.trace
  OUTPUT_QUIET
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sharqfec_sim exited with ${rc}")
endif()
file(SHA256 so_history.trace trace_sha256)
if(NOT trace_sha256 STREQUAL EXPECTED_TRACE_SHA256)
  message(FATAL_ERROR
    "Sender-only Figure-10 history drifted from the pinned run\n"
    "  trace ${trace_sha256} (pinned ${EXPECTED_TRACE_SHA256})")
endif()
message(STATUS "Sender-only Figure-10 history matches the pinned hash")
