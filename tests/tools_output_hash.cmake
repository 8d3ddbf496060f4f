# Pins what the two analysis tools print, so a change to how they read
# JSON (or to what they compute from it) that moves any byte fails here:
#
#   sharq_trace timeline|breakdown|anomalies|export --perfetto
#       over the fixed-seed Figure-10 journal that journal_history_hash
#       pins (sharqfec_sim --topo fig10 --packets 128 --until 45 --seed 7
#       --journal);
#   sharq_prof report|export --perfetto
#       over tests/data/chaos_sharded_profile.json, a committed profile of
#       the two-worker campaign `chaos_sim --plans 3 --seed 5 --threads 2
#       --profile`, so the per-shard rows (eight shards, barrier waits)
#       are exercised. The profile's timing section is wall-clock data,
#       which is why it is a committed file rather than a fresh run.
#
# Same contract as the history pins (docs/DETERMINISM.md): a deliberate
# change to a tool's output re-pins its constant in the same commit, with
# the diff documented.
#
#   cmake -DSIM=<sharqfec_sim> -DTRACE=<sharq_trace> -DPROF=<sharq_prof>
#         -DPROFILE=<chaos_sharded_profile.json> -P tools_output_hash.cmake

set(EXPECTED_TIMELINE_SHA256 "146afaa0b1f72d83e375050d6cffc90084cc5af4d3cbfe90a653690193da884e")
set(EXPECTED_BREAKDOWN_SHA256 "f6714c4c99d8f77d4b87f92a4202d0df35789f238450fe6f2d4328e3002b93e2")
set(EXPECTED_ANOMALIES_SHA256 "371d01d96d1556a663ac3c95f3f4b47f5b214b76a968faabd7a0b9e6405b9834")
set(EXPECTED_TRACE_PERFETTO_SHA256 "340f090101f44de6f0c1a2d0c05690a6b4ecd1840901765216dcc9bd61f9df18")
set(EXPECTED_REPORT_SHA256 "7b621a396827f6778e0a77a2de0f368e88be7ccc19c0e3f40f1ca6c1d3b9d4db")
set(EXPECTED_PROF_PERFETTO_SHA256 "c63945872d5b4f0e158e7f6d86ba16eac9bba1be2aac5af691cf214c2e4da710")

foreach(var SIM TRACE PROF PROFILE)
  if(NOT ${var})
    message(FATAL_ERROR "pass -D${var}=<path>")
  endif()
endforeach()
execute_process(
  COMMAND "${SIM}" --topo fig10 --packets 128 --until 45 --seed 7
          --journal tools_output.jsonl
  OUTPUT_QUIET
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sharqfec_sim exited with ${rc}")
endif()

set(drifted "")
function(pin name expected)
  execute_process(
    COMMAND ${ARGN}
    OUTPUT_FILE tools_output_${name}.txt
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${name}: exited with ${rc}")
  endif()
  file(SHA256 tools_output_${name}.txt sha256)
  if(NOT sha256 STREQUAL expected)
    set(drifted "${drifted}\n  ${name} ${sha256} (pinned ${expected})"
        PARENT_SCOPE)
  endif()
endfunction()

pin(timeline "${EXPECTED_TIMELINE_SHA256}"
    "${TRACE}" timeline tools_output.jsonl)
pin(breakdown "${EXPECTED_BREAKDOWN_SHA256}"
    "${TRACE}" breakdown tools_output.jsonl)
pin(anomalies "${EXPECTED_ANOMALIES_SHA256}"
    "${TRACE}" anomalies tools_output.jsonl)
pin(trace_perfetto "${EXPECTED_TRACE_PERFETTO_SHA256}"
    "${TRACE}" export tools_output.jsonl --perfetto)
pin(report "${EXPECTED_REPORT_SHA256}"
    "${PROF}" report "${PROFILE}")
pin(prof_perfetto "${EXPECTED_PROF_PERFETTO_SHA256}"
    "${PROF}" export "${PROFILE}" --perfetto)

if(drifted)
  message(FATAL_ERROR "analysis tool output drifted from the pin:${drifted}")
endif()
message(STATUS "sharq_trace and sharq_prof output match the pinned hashes")
