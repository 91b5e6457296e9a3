let lvs ?(severity = Diag.Error) rule_id doc =
  { Diag.id = "lvs/" ^ rule_id; category = "lvs"; severity; doc }

let r_short =
  lvs "short"
    "No extracted component may join shapes belonging to two different \
     capacitor nets (or a capacitor net and the shared top plate)."

let r_open =
  lvs "open"
    "Every capacitor net must extract as one single component reaching its \
     driver terminal."

let r_floating_cell =
  lvs "floating-cell"
    "Every placed unit cell's bottom plate must be reachable from its \
     capacitor's driver terminal through drawn geometry."

let r_dangling = lvs "dangling" ~severity:Diag.Warning
    "A component carrying net-labelled shapes but neither a cell plate nor \
     a driver terminal is dead metal (antenna)."

let r_top_open =
  lvs "top-open"
    "The shared top plate must extract as one single component spanning \
     every cell's top pad."

let r_netbuild_mismatch =
  lvs "netbuild-mismatch"
    "The cells reached by a capacitor's extracted driver component must be \
     exactly the cell_nodes of its Netbuild RC tree."

let rules =
  [ r_short; r_open; r_floating_cell; r_dangling; r_top_open;
    r_netbuild_mismatch ]
