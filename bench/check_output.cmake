# Pins a paper harness: runs it and byte-compares its stdout with the
# recorded bench/expected/<name>.txt, so any change that moves a
# reproduced number fails CI.
#
# Invoked by ctest (see bench/CMakeLists.txt):
#   cmake -DHARNESS=<exe> -DEXPECTED=<file> -P check_output.cmake
#
# After an intended change, re-record with `<exe> > bench/expected/<name>.txt`
# and review the diff.

if(NOT DEFINED HARNESS OR NOT DEFINED EXPECTED)
    message(FATAL_ERROR "pass -DHARNESS=... and -DEXPECTED=...")
endif()

execute_process(
    COMMAND "${HARNESS}"
    OUTPUT_VARIABLE got
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${HARNESS}: expected exit 0, got ${rc}")
endif()
file(READ "${EXPECTED}" want)
if(NOT got STREQUAL want)
    message(FATAL_ERROR "${HARNESS}: output drifted from ${EXPECTED}\n"
                        "--- got ---\n${got}"
                        "--- want ---\n${want}")
endif()
