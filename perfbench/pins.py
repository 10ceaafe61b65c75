"""Outputs pinned at the commit that introduced this benchmark.

The langcc command must reproduce these byte for byte: the SHA-256 of each
`.clang` artifact, the SHA-256 of each conflict report, and (checked in the
traced run, which sees the tables) the LR state count of each k attempted.
TOKENS is the number of tokens the meta.lang lexer emits for each fixture
the self-hosted frontend reads; the traced run's separate `lex` of each is
checked against it.  A change to the program that alters any of them fails
the run's correctness check.
"""

LANGCC = {
    "ab_eps.lang": {"rc": 0, "sha256": "7f546aa8b2a29dfdadd317641774d0d54b1231124a5b279296d52336cbff8dc1",
        "states": {1: 5, 2: 5}},
    "calc.lang": {"rc": 0, "sha256": "eaf7c04e1d4ba4e2f2e0e3e1276010e5bd7e2c51b45ec31667ea0ddcd55346cf",
        "states": {1: 97}},
    "calc_prog.lang": {"rc": 0, "sha256": "24bcc3d4ae96d39cbe70664a2bf511b454138c9b3713a3696eef45d97f23c02a",
        "states": {1: 149}},
    "meta.lang": {"rc": 0, "sha256": "0c397f0146cdf9cd518724e57e08feebb74cea1cbed7dd1c5b50158ad2e5d867",
        "states": {1: 845}},
    "parens.lang": {"rc": 0, "sha256": "ee15bcbdef7c2a69874c1eae3c037432d41205dedb6b20a75240fa14aed124e6",
        "states": {1: 10}},
    "rd_tiny.lang": {"rc": 0, "sha256": "0ec4c4dcd3666d68559f304c4aad8ee212e7f6c8713d03c548826890577034f8",
        "states": {1: 6}},
    "sum_list.lang": {"rc": 0, "sha256": "079cf38c3225723b4555c27e75ebe35467a6248df577f2ef143c92a0dc606559",
        "states": {1: 8}},
    "calc_noprec.lang": {"rc": 1, "report_sha256": "6859dc78bee87bb0dc4a30af96b1fb8cf0190045d1171b7ef61fe19cbca07695",
        "states": {1: 39, 2: 56}},
    "calc_prog_noprec.lang": {"rc": 1, "report_sha256": "6859dc78bee87bb0dc4a30af96b1fb8cf0190045d1171b7ef61fe19cbca07695",
        "states": {1: 62, 2: 96}},
    "meta_noprec.lang": {"rc": 1, "report_sha256": "9fbf80d54183a95592ff9ef4c34a2cdb72a655ae4df6728b9a150667ae74978f",
        "states": {1: 411}},
}

TOKENS = {
    "ab_eps.lang": 79,
    "calc.lang": 364,
    "calc_noprec.lang": 314,
    "calc_prog.lang": 333,
    "meta.lang": 1269,
    "parens.lang": 79,
    "rd_tiny.lang": 72,
    "sum_list.lang": 77,
}
