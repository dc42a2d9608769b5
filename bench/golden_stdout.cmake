# Runs one bench or example binary at PINSIM_REPS=1 (serial) and checks
# the SHA-256 of its stdout against the committed golden list. stdout
# carries results only — wall times and thread notes go to stderr — so
# any drift in the bytes is a change in simulated behaviour.
#
#   cmake -DBENCH=<binary> -DNAME=<name> -DGOLDENS=<list> -DOUT_DIR=<dir>
#         -P golden_stdout.cmake
#
# On a mismatch the actual hash is printed and the stdout kept in
# OUT_DIR/<name>.stdout for diffing. An intentional behaviour change
# re-records the list entry with that hash.
set(ENV{PINSIM_REPS} 1)
unset(ENV{PINSIM_JOBS})

execute_process(COMMAND ${BENCH} OUTPUT_VARIABLE out RESULT_VARIABLE rc)
file(MAKE_DIRECTORY ${OUT_DIR})
file(WRITE ${OUT_DIR}/${NAME}.stdout "${out}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${NAME} exited with ${rc}")
endif()
string(SHA256 actual "${out}")

file(STRINGS ${GOLDENS} entries REGEX "^[0-9a-f]+  ${NAME}$")
list(LENGTH entries found)
if(NOT found EQUAL 1)
  message(FATAL_ERROR "no golden for ${NAME} in ${GOLDENS}; "
                      "actual sha256 ${actual}")
endif()
string(REGEX REPLACE "  .*" "" expected "${entries}")
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "${NAME} stdout drifted from the golden\n"
                      "  expected sha256 ${expected}\n"
                      "  actual sha256   ${actual}\n"
                      "  stdout kept in ${OUT_DIR}/${NAME}.stdout")
endif()
