//! An interactive shell onto the simulated device — `adb shell` for the
//! reproduction. Handy for poking at generated apps by hand.
//!
//! ```sh
//! cargo run --release --example device_shell            # quickstart app
//! echo "widgets\nclick hamburger_main\nwidgets" | cargo run --release --example device_shell
//! ```

use fragdroid_repro::droidsim::{dump_hierarchy, Device};
use std::io::{BufRead, Write};

const HELP: &str = "commands:
  widgets              list visible widgets
  click <id>           click a widget
  text <id> <value…>   type into an EditText
  back                 hardware back
  swipe                edge swipe (opens a drawer)
  dismiss              click blank space (dismiss dialog/menu)
  reflect <class>      reflective fragment switch
  start <component>    am start -n (needs MAIN action)
  launch               restart from the launcher
  sig                  print the fragment-level state signature
  dump                 uiautomator-style XML of the hierarchy
  apis                 sensitive-API invocations so far
  quit";

fn main() {
    let gen = fragdroid_repro::appgen::templates::quickstart();
    let mut app = gen.app;
    app.manifest.add_main_action_everywhere();
    let mut device = Device::new(app);
    device.launch().expect("launch");
    println!("device shell on {} — 'help' for commands", device.app().package());
    print_state(&device);

    let stdin = std::io::stdin();
    loop {
        print!("> ");
        let _ = std::io::stdout().flush();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let mut parts = line.split_whitespace();
        let Some(cmd) = parts.next() else { continue };
        let arg = parts.next().unwrap_or("");
        let rest: String = parts.collect::<Vec<_>>().join(" ");

        let outcome = match cmd {
            "quit" | "exit" => break,
            "help" => {
                println!("{HELP}");
                continue;
            }
            "widgets" => {
                for w in device.visible_widgets() {
                    println!(
                        "  {:<28} {:?}{}{}",
                        w.id.as_deref().unwrap_or_default(),
                        w.kind,
                        if w.clickable { "  [clickable]" } else { "" },
                        if w.text.is_empty() { String::new() } else { format!("  \"{}\"", w.text) },
                    );
                }
                continue;
            }
            "sig" => {
                print_state(&device);
                continue;
            }
            "dump" => {
                match device.current() {
                    Some(screen) => print!("{}", dump_hierarchy(screen)),
                    None => println!("(app not running)"),
                }
                continue;
            }
            "apis" => {
                for inv in device.invocations() {
                    println!("  {}/{} ← {:?}", inv.group, inv.name, inv.caller);
                }
                continue;
            }
            "click" => device.click(arg),
            "text" => device
                .enter_text(arg, &rest)
                .map(|()| fragdroid_repro::droidsim::EventOutcome::NoChange),
            "back" => device.back(),
            "swipe" => device.swipe_open_drawer(),
            "dismiss" => device.dismiss_overlay(),
            "reflect" => device.reflect_switch_fragment(arg),
            "start" => device.am_start(arg),
            "launch" => device.launch(),
            other => {
                println!("unknown command '{other}' — try 'help'");
                continue;
            }
        };
        match outcome {
            Ok(out) => println!("  → {out:?}"),
            Err(e) => println!("  ! {e}"),
        }
        print_state(&device);
    }
}

fn print_state(device: &Device) {
    match device.signature() {
        Some(sig) => println!("[{sig}]"),
        None => println!(
            "[not running{}]",
            device.crash_reason().map(|r| format!(": {r}")).unwrap_or_default()
        ),
    }
}
