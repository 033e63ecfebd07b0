# End-to-end round trips through the cmvrp_cli serving front ends. CTest
# runs this as `cli_roundtrip`; by hand:
#   cmake -DCLI=build/tools/cmvrp_cli -DWORK=/tmp/rt -P tests/cli_roundtrip.cmake
# Every step must exit with the code it names; the first that does not
# fails the test with the command's output.

function(cli expected)
  execute_process(COMMAND "${CLI}" ${ARGN}
                  WORKING_DIRECTORY "${WORK}"
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE out)
  if(NOT rc STREQUAL "${expected}")
    string(REPLACE ";" " " shown "${ARGN}")
    message(FATAL_ERROR
            "cmvrp_cli ${shown}: exit ${rc}, expected ${expected}\n${out}")
  endif()
endfunction()

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

# Trace round trip: bounded-memory replay reports what the in-memory
# reference does on every deterministic field.
cli(0 trace gen --out ci.trace --generator hotspot --dim 3 --count 3000
      --cubes 4 --burst 32 --seed 9)
cli(0 trace info --file ci.trace)
cli(0 trace replay --file ci.trace --threads 2 --obs --json replay.json)
cli(0 trace replay --file ci.trace --threads 2 --obs --memory
      --json memory.json)
cli(0 compare replay.json memory.json)

# Record round trip: the outcome trail replays to the recorded run, and
# recording that replay writes the same bytes. cube_slots differs by
# design: the scenario declares its region, the replay sizes the slot
# table from the trail's demand.
cli(0 stream --scenario hotspot/s4c8/n4000/b64 --record o1.trace --threads 2
      --monitor-stride 16 --obs --json record.json)
cli(0 trace info --file o1.trace)
cli(0 trace replay --file o1.trace --record o2.trace --threads 2
      --monitor-stride 16 --obs --json audit.json)
cli(0 compare record.json audit.json --ignore cube_slots)
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${WORK}/o1.trace" "${WORK}/o2.trace"
                RESULT_VARIABLE same)
if(NOT same EQUAL 0)
  message(FATAL_ERROR "re-recorded outcome trail o2.trace differs from o1.trace")
endif()

# Mux order invariance: two traces merged into one engine report the
# same whichever is listed first.
cli(0 trace gen --out mux_a.trace --generator hotspot --count 2000 --seed 21)
cli(0 trace gen --out mux_b.trace --generator gradient --count 2000 --seed 22)
cli(0 trace mux mux_a.trace mux_b.trace --threads 2 --obs --json mux_ab.json)
cli(0 trace mux mux_b.trace mux_a.trace --threads 2 --obs --json mux_ba.json)
cli(0 compare mux_ab.json mux_ba.json)

# Retired front ends are usage errors that name their replacement, not
# silent fallbacks to another job source.
cli(2 record --scenario hotspot/s4c8/n4000/b64 --out retired.trace)
cli(2 stream --trace ci.trace)
