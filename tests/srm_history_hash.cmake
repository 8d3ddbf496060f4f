# Pins the simulated history of one fixed-seed SRM-baseline run on Figure
# 10 to a committed SHA-256 of its packet trace:
#
#   sharqfec_sim --topo fig10 --protocol srm --packets 128 --until 45 --seed 7
#
# The SRM companion of fig10_history_hash.cmake, under the same contract
# (docs/DETERMINISM.md): a deliberate change to SRM's simulated history
# re-pins the constant in the same commit, with the diff documented.
#
#   cmake -DSIM=<path to sharqfec_sim> -P srm_history_hash.cmake

set(EXPECTED_TRACE_SHA256 "d2f36aebc1fe9ad5c200d9e369b26e18b864020990fde4db64804a69dfca4d8f")

if(NOT SIM)
  message(FATAL_ERROR "pass -DSIM=<path to sharqfec_sim>")
endif()
execute_process(
  COMMAND "${SIM}" --topo fig10 --protocol srm --packets 128 --until 45
          --seed 7 --trace srm_history.trace
  OUTPUT_QUIET
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sharqfec_sim exited with ${rc}")
endif()
file(SHA256 srm_history.trace trace_sha256)
if(NOT trace_sha256 STREQUAL EXPECTED_TRACE_SHA256)
  message(FATAL_ERROR
    "SRM Figure-10 history drifted from the pinned run\n"
    "  trace ${trace_sha256} (pinned ${EXPECTED_TRACE_SHA256})")
endif()
message(STATUS "SRM Figure-10 history matches the pinned hash")
