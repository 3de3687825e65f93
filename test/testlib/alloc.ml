let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0
