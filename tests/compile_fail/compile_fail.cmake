# Negative-compile test driver, run in script mode:
#
#   cmake -DCOMPILER=<c++ compiler> -DFLAGS=<extra flags>
#         -DFIXTURE=<fixture.cc> -DINCLUDE_DIR=<repo src dir>
#         [-DEXPECT=<regex the violation's diagnostics must match>]
#         -P compile_fail.cmake
#
# Each fixture contains a violating variant under -DHM_EXPECT_VIOLATION
# and a clean variant without it. The fixture is compiled twice with
# -fsyntax-only, asserting BOTH directions: the violation must be
# rejected (the checker actually fires) and the clean variant must be
# accepted (the fixture is red for the right reason, not a typo).

foreach(var COMPILER FIXTURE INCLUDE_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "compile_fail.cmake: -D${var}=... is required")
  endif()
endforeach()

separate_arguments(flag_list NATIVE_COMMAND "${FLAGS}")
set(base_command ${COMPILER} -std=c++20 -fsyntax-only
    -I ${INCLUDE_DIR} ${flag_list})

execute_process(
  COMMAND ${base_command} -DHM_EXPECT_VIOLATION ${FIXTURE}
  RESULT_VARIABLE violation_rc
  OUTPUT_VARIABLE violation_out
  ERROR_VARIABLE violation_err)
if(violation_rc EQUAL 0)
  message(FATAL_ERROR
          "${FIXTURE}: the HM_EXPECT_VIOLATION variant compiled clean "
          "with '${FLAGS}' — the checker this fixture covers is not "
          "firing")
endif()
if(EXPECT AND NOT violation_err MATCHES "${EXPECT}")
  message(FATAL_ERROR
          "${FIXTURE}: the HM_EXPECT_VIOLATION variant was rejected, but "
          "not with a diagnostic matching '${EXPECT}':\n${violation_err}")
endif()

execute_process(
  COMMAND ${base_command} ${FIXTURE}
  RESULT_VARIABLE clean_rc
  OUTPUT_VARIABLE clean_out
  ERROR_VARIABLE clean_err)
if(NOT clean_rc EQUAL 0)
  message(FATAL_ERROR
          "${FIXTURE}: the clean variant failed to compile — the "
          "fixture is red for the wrong reason:\n${clean_err}")
endif()

message(STATUS "${FIXTURE}: violation rejected, clean variant accepted")
