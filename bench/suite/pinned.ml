(* Golden digests of each workload's outputs at full scale, by input
   seed: (workload, seed, MD5 hex). A run on a listed seed must
   reproduce its digest; `mobibench` prints the digest of every run.
   What each digest covers:
   - sparse_r0, dense_gossip: (outcome, steps, informed, covered) of the
     first 100 and 30 trials;
   - population_256k: (time, informed, largest island, frontier) after
     each of the first 60 steps;
   - service_submit: the first 10 cold response bodies;
   - reproduce_quick: the stdout of `exp --quick`, keyed by the exp seed
     the workload seed selects. *)

let digests =
  [
    ("sparse_r0", 0, "6c1c69113a6e3bf2c6820f8240aa4323");
    ("sparse_r0", 1, "9fbcca70f0cd3977149c33fd8b326bc8");
    ("sparse_r0", 2, "374c5a589b0ebd95554d6a5b72d00057");
    ("sparse_r0", 3, "dcd533e6438eb2401508763a3b41c636");
    ("sparse_r0", 4, "19c795ad962d06327af3d1ac4116f91c");
    ("sparse_r0", 5, "5a388efc7c7ce41c0a338168909d50c8");
    ("sparse_r0", 6, "b0fe02e01a5a9e0c68162989a0fcd5d4");
    ("sparse_r0", 7, "f9d431e4f15aa7bb2ea63a32ac77833a");
    ("sparse_r0", 8, "abd8a8bcaa835eca259f2f7df2649051");
    ("sparse_r0", 9, "e27dcb307ff0755a11034813106e26a3");
    ("sparse_r0", 10, "d5d5813f36e61ebf9d6f863de13d688e");
    ("dense_gossip", 0, "8f04cbba8d4aa879b3bf19a39336cde7");
    ("dense_gossip", 1, "31783eb3ceab491dfc42362375635c3d");
    ("dense_gossip", 2, "6d7248693a503da42069f6c3c3c8b4fb");
    ("dense_gossip", 3, "069e8fddf50030c4c0d20feae4502ce0");
    ("dense_gossip", 4, "eae23a126a9b464c2b55b583a966e255");
    ("dense_gossip", 5, "07fa46a10ada54ce60c1f81b722fae57");
    ("dense_gossip", 6, "abe97ce2918adb0fee4011fe2a384029");
    ("dense_gossip", 7, "2e6caaa135feb297ce45b7a04c3bde0a");
    ("dense_gossip", 8, "75881d6344ae0ad4e1967b9b7b4f04dc");
    ("dense_gossip", 9, "f0082e52bc15feea4eadd56bc532b11d");
    ("dense_gossip", 10, "5f3739ca004e4a855714b2b61c1c77bb");
    ("service_submit", 0, "17b55b8b195b158408fd25c88c8997b8");
    ("service_submit", 1, "6a29dca6d9147bdab331e9a223e86dbe");
    ("service_submit", 2, "f51fb36ac674d63de00e61469393d785");
    ("service_submit", 3, "fdae6de534c6048ec303b1e98d7dca05");
    ("service_submit", 4, "a6de98086ec50ec5f945ff9669c31489");
    ("service_submit", 5, "d05627f0ce828b89b59f22fccfd3595c");
    ("service_submit", 6, "43934a78258b27c4c4d5b2573f710aa5");
    ("service_submit", 7, "8947e7c44c15cfd87ceb0b34c33c9244");
    ("service_submit", 8, "5094e3432613f9f096c8d731c9a987ae");
    ("service_submit", 9, "85bad6bd158523c72e99ff804c299da6");
    ("service_submit", 10, "ca483ad54a5fac4c28e6e57f6d87f2ee");
    ("population_256k", 0, "e3669ac0e33dd48ed1459dd456169123");
    ("population_256k", 1, "e8078ab5b613e53a42c99efba77ebc58");
    ("population_256k", 2, "0726183c831ac17bdd4b415dfda2eaff");
    ("population_256k", 3, "4ad390d5d3853d9fff1a80776e5da15b");
    ("population_256k", 4, "ada35ea3c949d228aba1b70c1949fed2");
    ("population_256k", 5, "5de05190d6647a68a29f0a65bdd9a4a7");
    ("population_256k", 6, "dc16bcdfaabe4a36f74d58830d56081b");
    ("population_256k", 7, "5967687be43af3918eab6c0ebbe72a89");
    ("population_256k", 8, "ce8519ae1d400833acdd32f2d04e8ded");
    ("population_256k", 9, "8c3407661a70698b1b46a1537aa20d95");
    ("population_256k", 10, "1ce4f353f9bb19ada7e1aaea37df5e8e");
    ("reproduce_quick", 0, "4fa37c42d7682aeee80276ffa19cbedf");
    ("reproduce_quick", 20, "cc0ee507ebcb154fc7a94a51b10034c3");
    ("reproduce_quick", 22, "b3942bbf0c6b94f688452fd95684c130");
    ("reproduce_quick", 26, "af6d181c5eaf72bc0106a42fb58af7da");
  ]

let find ~workload ~seed =
  List.find_map
    (fun (w, s, d) -> if String.equal w workload && s = seed then Some d else None)
    digests
