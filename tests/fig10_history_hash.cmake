# Pins the simulated history of one fixed-seed Figure-10 run to committed
# SHA-256 constants: the packet trace and the metrics export of
#
#   sharqfec_sim --topo fig10 --packets 128 --until 45 --seed 7
#
# Every random draw is specified in src/sim/random.hpp, so these bytes
# depend on the seed and the code alone. A different compiler, standard
# library, optimisation level or sanitizer that changes them fails here
# (docs/DETERMINISM.md). A deliberate change to the simulated history
# re-pins both constants in the same commit, with the diff documented; so
# does removing a metric family from the export (the trace stays pinned).
#
#   cmake -DSIM=<path to sharqfec_sim> -P fig10_history_hash.cmake

set(EXPECTED_TRACE_SHA256 "39bb73a67b309ec48734caa897ddfee34ba7d75bda2ab613d03f528908909137")
set(EXPECTED_METRICS_SHA256 "ab9b426a882b81dbbb786e9157365db22d995e54c30e5a65049afe1f573efe00")

if(NOT SIM)
  message(FATAL_ERROR "pass -DSIM=<path to sharqfec_sim>")
endif()
execute_process(
  COMMAND "${SIM}" --topo fig10 --packets 128 --until 45 --seed 7
          --trace fig10_history.trace --metrics-json fig10_history.json
  OUTPUT_QUIET
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sharqfec_sim exited with ${rc}")
endif()
file(SHA256 fig10_history.trace trace_sha256)
file(SHA256 fig10_history.json metrics_sha256)
if(NOT trace_sha256 STREQUAL EXPECTED_TRACE_SHA256 OR
   NOT metrics_sha256 STREQUAL EXPECTED_METRICS_SHA256)
  message(FATAL_ERROR
    "Figure-10 history drifted from the pinned run\n"
    "  trace   ${trace_sha256} (pinned ${EXPECTED_TRACE_SHA256})\n"
    "  metrics ${metrics_sha256} (pinned ${EXPECTED_METRICS_SHA256})")
endif()
message(STATUS "Figure-10 history matches the pinned hashes")
