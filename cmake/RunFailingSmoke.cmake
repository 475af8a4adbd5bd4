# Run a binary that must fail loudly: fail unless it exits nonzero AND its
# stderr matches SMOKE_EXPECT.  With SMOKE_ABSENT=<file>, the file is deleted
# first and must still be absent afterwards (a failed run writes no artifact).
# Usage: cmake -DSMOKE_BINARY=<path> "-DSMOKE_ARGS=<space-separated args>"
#              "-DSMOKE_EXPECT=<regex>" [-DSMOKE_ABSENT=<file>]
#              -P RunFailingSmoke.cmake
if(NOT SMOKE_BINARY OR NOT SMOKE_EXPECT)
  message(FATAL_ERROR "SMOKE_BINARY and SMOKE_EXPECT must be set")
endif()
if(SMOKE_ABSENT)
  file(REMOVE "${SMOKE_ABSENT}")
endif()

separate_arguments(smoke_args UNIX_COMMAND "${SMOKE_ARGS}")
execute_process(COMMAND ${SMOKE_BINARY} ${smoke_args}
                OUTPUT_VARIABLE smoke_out
                ERROR_VARIABLE smoke_err
                RESULT_VARIABLE smoke_rc)

if(smoke_rc EQUAL 0)
  message(FATAL_ERROR "${SMOKE_BINARY} exited 0, expected a failure\nstdout:\n${smoke_out}")
endif()
if(NOT smoke_err MATCHES "${SMOKE_EXPECT}")
  message(FATAL_ERROR
    "${SMOKE_BINARY} exited ${smoke_rc}, stderr does not match '${SMOKE_EXPECT}':\n${smoke_err}")
endif()
if(SMOKE_ABSENT AND EXISTS "${SMOKE_ABSENT}")
  message(FATAL_ERROR "${SMOKE_BINARY} exited ${smoke_rc} but left ${SMOKE_ABSENT} behind")
endif()

message(STATUS "smoke OK: ${SMOKE_BINARY} exited ${smoke_rc} with '${SMOKE_EXPECT}'")
