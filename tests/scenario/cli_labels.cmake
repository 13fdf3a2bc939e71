# Included by ctest after the discovered scenario gtests: gives the CLI
# parsing cases the `cli` label beside `scenario`
# (gtest_discover_tests passes one label list to every test it finds).
foreach(test IN LISTS mcps_scenario_tests_TESTS)
  if(test MATCHES "^Cli")
    set_tests_properties("${test}" PROPERTIES LABELS "scenario;cli")
  endif()
endforeach()
