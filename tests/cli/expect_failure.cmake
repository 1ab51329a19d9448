# Runs CMD (a |-separated command line) and passes only when it exits with
# EXIT_CODE and its standard error matches STDERR_REGEX:
#
#   cmake -DCMD=prog|arg1|arg2 -DEXIT_CODE=2 -DSTDERR_REGEX=... -P expect_failure.cmake
string(REPLACE "|" ";" command "${CMD}")
execute_process(COMMAND ${command} RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT code STREQUAL EXIT_CODE)
    message(FATAL_ERROR "exit code ${code}, expected ${EXIT_CODE}; stderr:\n${err}")
endif()
if(NOT err MATCHES "${STDERR_REGEX}")
    message(FATAL_ERROR "stderr does not match '${STDERR_REGEX}':\n${err}")
endif()
