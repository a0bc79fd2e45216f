open Iaccf_merkle
module D = Iaccf_crypto.Digest32

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let digest_testable = Alcotest.testable D.pp_full D.equal
let d s = D.of_string s
let leaves n = List.init n (fun i -> d (Printf.sprintf "leaf-%d" i))

let build n =
  let t = Tree.create () in
  List.iter (Tree.append t) (leaves n);
  t

let test_empty_root () =
  let t = Tree.create () in
  check digest_testable "empty" Tree.empty_root (Tree.root t);
  (* RFC 6962: the empty tree's hash is SHA-256 of the empty string. *)
  check Alcotest.string "sha256 of empty"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (D.to_hex (Tree.root t))

let test_single_leaf () =
  let t = build 1 in
  check digest_testable "single leaf root is leaf hash"
    (Tree.leaf_hash (d "leaf-0"))
    (Tree.root t)

let test_two_leaves () =
  let t = build 2 in
  check digest_testable "two leaves"
    (Tree.node_hash (Tree.leaf_hash (d "leaf-0")) (Tree.leaf_hash (d "leaf-1")))
    (Tree.root t)

let test_three_leaves_structure () =
  (* RFC 6962: MTH(3) = node(node(l0, l1), l2). *)
  let t = build 3 in
  let expected =
    Tree.node_hash
      (Tree.node_hash (Tree.leaf_hash (d "leaf-0")) (Tree.leaf_hash (d "leaf-1")))
      (Tree.leaf_hash (d "leaf-2"))
  in
  check digest_testable "three leaves" expected (Tree.root t)

let test_root_matches_reference () =
  (* The incremental cached root must match a from-scratch recomputation. *)
  for n = 0 to 40 do
    let t = build n in
    check digest_testable
      (Printf.sprintf "n=%d" n)
      (Tree.root_of_leaves (leaves n))
      (Tree.root t)
  done

let test_paths_all_leaves () =
  List.iter
    (fun n ->
      let t = build n in
      let root = Tree.root t in
      for i = 0 to n - 1 do
        let path = Tree.path t i in
        if
          not
            (Tree.verify_path ~leaf:(Tree.leaf t i) ~index:i ~size:n ~path ~root)
        then Alcotest.failf "path failed for leaf %d of %d" i n
      done)
    [ 1; 2; 3; 4; 5; 7; 8; 9; 15; 16; 17; 33 ]

let test_path_rejects_wrong_leaf () =
  let t = build 8 in
  let root = Tree.root t in
  let path = Tree.path t 3 in
  check Alcotest.bool "wrong leaf" false
    (Tree.verify_path ~leaf:(d "not-a-leaf") ~index:3 ~size:8 ~path ~root);
  check Alcotest.bool "wrong index" false
    (Tree.verify_path ~leaf:(Tree.leaf t 3) ~index:4 ~size:8 ~path ~root);
  check Alcotest.bool "truncated path" false
    (Tree.verify_path ~leaf:(Tree.leaf t 3) ~index:3 ~size:8 ~path:(List.tl path) ~root);
  check Alcotest.bool "index out of size" false
    (Tree.verify_path ~leaf:(Tree.leaf t 3) ~index:9 ~size:8 ~path ~root)

let test_truncate_restores_root () =
  let t = build 10 in
  let root10 = Tree.root t in
  List.iter (Tree.append t) (List.init 7 (fun i -> d (Printf.sprintf "extra-%d" i)));
  Tree.truncate t 10;
  check digest_testable "root after truncate" root10 (Tree.root t);
  check Alcotest.int "size" 10 (Tree.size t);
  (* Appending the same leaves again must reproduce the same roots. *)
  Tree.append t (d "extra-0");
  let t2 = build 10 in
  Tree.append t2 (d "extra-0");
  check digest_testable "deterministic regrowth" (Tree.root t2) (Tree.root t)

let test_truncate_to_zero () =
  let t = build 5 in
  Tree.truncate t 0;
  check digest_testable "empty again" Tree.empty_root (Tree.root t)

let test_copy_independent () =
  let t = build 4 in
  let t2 = Tree.copy t in
  Tree.append t (d "x");
  check Alcotest.int "copy size" 4 (Tree.size t2);
  check digest_testable "copy root" (Tree.root (build 4)) (Tree.root t2)

let test_order_sensitivity () =
  let a = Tree.root_of_leaves [ d "x"; d "y" ] in
  let b = Tree.root_of_leaves [ d "y"; d "x" ] in
  check Alcotest.bool "order matters" false (D.equal a b)

let prop_incremental_matches_reference =
  QCheck.Test.make ~name:"cached root = reference root" ~count:100
    QCheck.(list_of_size (Gen.int_range 0 120) small_string)
    (fun items ->
      let ds = List.map d items in
      let t = Tree.create () in
      List.iter (Tree.append t) ds;
      D.equal (Tree.root t) (Tree.root_of_leaves ds))

let prop_paths_verify =
  QCheck.Test.make ~name:"every path verifies" ~count:60
    QCheck.(int_range 1 80)
    (fun n ->
      let t = build n in
      let root = Tree.root t in
      List.for_all
        (fun i ->
          Tree.verify_path ~leaf:(Tree.leaf t i) ~index:i ~size:n
            ~path:(Tree.path t i) ~root)
        (List.init n Fun.id))

let prop_truncate_then_rebuild =
  QCheck.Test.make ~name:"truncate = rebuild" ~count:60
    QCheck.(pair (int_range 0 60) (int_range 0 60))
    (fun (n, k) ->
      let k = min k n in
      let t = build n in
      Tree.truncate t k;
      D.equal (Tree.root t) (Tree.root (build k)))

(* [of_leaves] sizes every level once; the tree must be the one [append]
   builds, down to what later appends and truncations see. *)
let prop_of_leaves_matches_append =
  QCheck.Test.make ~name:"of_leaves = append-built" ~count:100
    QCheck.(pair (int_range 0 300) (int_range 0 300))
    (fun (n, k) ->
      let a = build n and b = Tree.of_leaves (leaves n) in
      let same () =
        Tree.size a = Tree.size b
        && D.equal (Tree.root a) (Tree.root b)
        && List.equal D.equal (Tree.frontier a) (Tree.frontier b)
        && List.for_all
             (fun i -> List.equal D.equal (Tree.path a i) (Tree.path b i))
             (List.init (Tree.size a) Fun.id)
      in
      let both f = f a; f b in
      let built = same () in
      (* A tree resumed from the frontier agrees on every later root. *)
      let c = Tree.of_frontier ~size:n (Tree.frontier b) in
      let resumed = D.equal (Tree.root c) (Tree.root a) in
      both (fun t -> Tree.append t (d "later"));
      Tree.append c (d "later");
      let appended = same () && D.equal (Tree.root c) (Tree.root a) in
      both (fun t -> Tree.truncate t (min k (n + 1)));
      let truncated = same () in
      both (fun t -> Tree.append t (d "after-truncate"));
      built && resumed && appended && truncated && same ())

let prop_path_wrong_sibling_fails =
  QCheck.Test.make ~name:"corrupted sibling fails" ~count:60
    QCheck.(pair (int_range 2 40) (int_range 0 1000))
    (fun (n, seed) ->
      let i = seed mod n in
      let t = build n in
      let root = Tree.root t in
      let path = Tree.path t i in
      QCheck.assume (path <> []);
      let j = seed mod List.length path in
      let corrupted = List.mapi (fun k h -> if k = j then d "corrupt" else h) path in
      not (Tree.verify_path ~leaf:(Tree.leaf t i) ~index:i ~size:n ~path:corrupted ~root))

let () =
  Alcotest.run "iaccf_merkle"
    [
      ( "tree",
        [
          Alcotest.test_case "empty root" `Quick test_empty_root;
          Alcotest.test_case "single leaf" `Quick test_single_leaf;
          Alcotest.test_case "two leaves" `Quick test_two_leaves;
          Alcotest.test_case "three leaves" `Quick test_three_leaves_structure;
          Alcotest.test_case "cached = reference" `Quick test_root_matches_reference;
          Alcotest.test_case "paths verify" `Quick test_paths_all_leaves;
          Alcotest.test_case "path rejections" `Quick test_path_rejects_wrong_leaf;
          Alcotest.test_case "truncate restores" `Quick test_truncate_restores_root;
          Alcotest.test_case "truncate to zero" `Quick test_truncate_to_zero;
          Alcotest.test_case "copy" `Quick test_copy_independent;
          Alcotest.test_case "order sensitive" `Quick test_order_sensitivity;
          qtest prop_incremental_matches_reference;
          qtest prop_paths_verify;
          qtest prop_truncate_then_rebuild;
          qtest prop_path_wrong_sibling_fails;
          qtest prop_of_leaves_matches_append;
        ] );
    ]
